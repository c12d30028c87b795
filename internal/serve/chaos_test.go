package serve

import (
	"testing"

	"netarch/internal/sat"
)

func TestParseChaos(t *testing.T) {
	cases := []struct {
		name, spec string
		ok         bool
		rate       float64
	}{
		{"valid", "seed=42,rate=0.25,event=conflict", true, 0.25},
		{"missing equals", "seed42", false, 0},
		{"bad seed", "seed=x,rate=0.1", false, 0},
		{"negative rate", "rate=-0.1", false, 0},
		{"rate above one", "rate=1.5", false, 0},
		{"NaN rate", "rate=NaN", false, 0},
		{"infinite rate", "rate=Inf", false, 0},
		{"unknown event", "rate=0.1,event=restart", false, 0},
		{"unknown key", "rate=0.1,burst=3", false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := ParseChaos(tc.spec)
			if !tc.ok {
				if err == nil {
					t.Fatalf("ParseChaos(%q) accepted a bad spec (rate %v)", tc.spec, c.rate)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseChaos(%q): %v", tc.spec, err)
			}
			if c.rate != tc.rate {
				t.Errorf("rate = %v, want %v", c.rate, tc.rate)
			}
			if !c.events[sat.EventConflict] || c.events[sat.EventSolve] {
				t.Errorf("events = %v, want conflict only", c.events)
			}
		})
	}
}

func FuzzParseChaos(f *testing.F) {
	for _, seed := range []string{
		"seed=42,rate=0.01,event=conflict",
		"rate=1,event=both",
		"rate=NaN",
		"rate=-0",
		"rate=1e-300,seed=-9",
		" , rate = 0.5 ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseChaos(spec)
		if err != nil {
			return
		}
		if !(c.rate >= 0 && c.rate <= 1) {
			t.Fatalf("ParseChaos(%q) gave rate %v outside [0,1]", spec, c.rate)
		}
	})
}
