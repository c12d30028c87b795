package extract

import (
	"testing"

	"netarch/internal/catalog"
	"netarch/internal/kb"
)

// TestCatalogScale is the large-catalog smoke for the 50k-SKU scale-out
// (make differential): the generated corpus must validate as a knowledge
// base, hit the advertised sizes, keep the seed catalog as an exact
// prefix, and round-trip through the §4.1 ingestion pipeline — rendered
// spec sheets re-extracted by the simulated LLM and scored at 100%
// accuracy. A deterministic stride keeps the ingestion sample a few
// hundred sheets so the whole test stays well under 30 seconds.
func TestCatalogScale(t *testing.T) {
	const total = 50000
	k := catalog.ScaledCatalog(total)
	if err := k.Validate(); err != nil {
		t.Fatalf("50k catalog does not validate: %v", err)
	}
	if len(k.Hardware) < total {
		t.Fatalf("scaled catalog has %d SKUs, want >= %d", len(k.Hardware), total)
	}
	if len(k.Workloads) < 24 {
		t.Fatalf("scaled catalog has %d workload profiles, want >= 24", len(k.Workloads))
	}
	if len(k.Rules) == 0 || len(k.Orders) == 0 {
		t.Fatalf("scaled catalog dropped rules (%d) or orders (%d)", len(k.Rules), len(k.Orders))
	}

	// Seed prefix and global name uniqueness: variants must never shadow
	// a real SKU (the slicer and the snapshot envelope key on names).
	seed := catalog.Hardware()
	seen := make(map[string]bool, len(k.Hardware))
	for i := range k.Hardware {
		name := k.Hardware[i].Name
		if seen[name] {
			t.Fatalf("duplicate SKU name %q at index %d", name, i)
		}
		seen[name] = true
		if i < len(seed) && name != seed[i].Name {
			t.Fatalf("seed prefix broken at %d: got %q want %q", i, name, seed[i].Name)
		}
	}

	// Ingestion round-trip over a strided sample (~500 sheets): render,
	// re-extract, score. The checker's §4.1 guarantee — 100% on spec
	// sheets — must survive the generated firmware variants.
	m := NewSimulatedLLM(2)
	var sampled int
	var total100 Accuracy
	for i := 0; i < len(k.Hardware); i += 97 {
		h := k.Hardware[i]
		got, err := m.ExtractHardware(RenderSpecSheet(&h))
		if err != nil {
			t.Fatalf("%s: %v", h.Name, err)
		}
		acc := ScoreHardware(got, h)
		if acc.Frac() != 1.0 {
			t.Fatalf("%s: ingestion accuracy %.2f (%+v)", h.Name, acc.Frac(), acc)
		}
		total100.Add(acc)
		sampled++
	}
	if sampled < 400 {
		t.Fatalf("sampled only %d sheets; stride too coarse for a meaningful smoke", sampled)
	}
	if total100.Frac() != 1.0 {
		t.Fatalf("sampled corpus accuracy %.4f, want 1.0", total100.Frac())
	}

	// Kind balance: dominance pruning groups per kind, so each kind must
	// scale, not just the most numerous seed class.
	byKind := map[kb.HardwareKind]int{}
	for i := range k.Hardware {
		byKind[k.Hardware[i].Kind]++
	}
	for _, kind := range []kb.HardwareKind{kb.KindSwitch, kb.KindNIC, kb.KindServer} {
		if byKind[kind] < total/10 {
			t.Fatalf("kind %s has only %d of %d SKUs", kind, byKind[kind], total)
		}
	}
}
