package logic

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestConvertShardsDeltaIdentity pins the delta-compilation contract: for
// any edit of the assertion list — add, remove, edit, reorder, or a mix —
// and any worker count, converting with the previous ShardSet yields a
// CNF byte-identical to a cold conversion (prev == nil) of the new list.
func TestConvertShardsDeltaIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	mutate := func(fs []Formula, base int) []Formula {
		out := append([]Formula(nil), fs...)
		switch r.Intn(4) {
		case 0: // add
			i := r.Intn(len(out) + 1)
			out = append(out[:i:i], append([]Formula{randFormula(r, base, 20)}, out[i:]...)...)
		case 1: // remove
			if len(out) > 1 {
				i := r.Intn(len(out))
				out = append(out[:i:i], out[i+1:]...)
			}
		case 2: // edit
			out[r.Intn(len(out))] = randFormula(r, base, 20)
		default: // reorder
			r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		}
		return out
	}
	for iter := 0; iter < 60; iter++ {
		const base = 6
		fs := make([]Formula, 0, 10)
		for j := 0; j < 10; j++ {
			fs = append(fs, randFormula(r, base, 20))
		}
		_, prev := ConvertShardsDelta(base, fs, nil, 2)
		if prev.Converted != len(fs) || prev.Reused != 0 {
			t.Fatalf("iter %d: cold conversion stats = %d reused / %d converted, want 0/%d",
				iter, prev.Reused, prev.Converted, len(fs))
		}
		for hop := 0; hop < 3; hop++ {
			fs = mutate(fs, base)
			want, _ := ConvertShardsDelta(base, fs, nil, 1)
			var next *ShardSet
			for _, w := range []int{1, 2, 8} {
				got, set := ConvertShardsDelta(base, fs, prev, w)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("iter %d hop %d: workers=%d delta CNF diverges from cold convert",
						iter, hop, w)
				}
				if set.Reused+set.Converted != len(fs) {
					t.Fatalf("iter %d hop %d: stats %d+%d != %d shards",
						iter, hop, set.Reused, set.Converted, len(fs))
				}
				next = set
			}
			prev = next
		}
	}
}

// TestConvertShardsDeltaSingleEdit checks the reuse accounting a live KB
// edit relies on: changing one assertion out of n reconverts exactly one
// shard.
func TestConvertShardsDeltaSingleEdit(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	const base = 6
	fs := make([]Formula, 12)
	for j := range fs {
		fs[j] = randFormula(r, base, 25)
	}
	_, prev := ConvertShardsDelta(base, fs, nil, 4)
	edited := append([]Formula(nil), fs...)
	for {
		f := randFormula(r, base, 25)
		fresh := true
		for _, old := range fs {
			if reflect.DeepEqual(f, old) {
				fresh = false
				break
			}
		}
		if fresh {
			edited[7] = f
			break
		}
	}
	got, set := ConvertShardsDelta(base, edited, prev, 4)
	if set.Reused != len(fs)-1 || set.Converted != 1 {
		t.Fatalf("single edit: %d reused / %d converted, want %d/1",
			set.Reused, set.Converted, len(fs)-1)
	}
	if want, _ := ConvertShardsDelta(base, edited, nil, 1); !reflect.DeepEqual(want, got) {
		t.Fatal("single-edit delta CNF diverges from cold convert")
	}
}

// TestConvertShardsDeltaRebase checks reuse across a vocabulary resize:
// shards converted at one base splice byte-identically into a compile at
// a larger or smaller base, as long as the formulas themselves are
// unchanged (the structural hash guarantees the atoms still fit).
func TestConvertShardsDeltaRebase(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	const lowBase = 4
	fs := make([]Formula, 8)
	for j := range fs {
		fs[j] = randFormula(r, lowBase, 20) // atoms ≤ 4 fit every base below
	}
	_, prev := ConvertShardsDelta(7, fs, nil, 2)
	for _, newBase := range []int{4, 7, 9} {
		got, set := ConvertShardsDelta(newBase, fs, prev, 2)
		if set.Reused != len(fs) {
			t.Fatalf("base %d: reused %d of %d shards", newBase, set.Reused, len(fs))
		}
		if want, _ := ConvertShardsDelta(newBase, fs, nil, 1); !reflect.DeepEqual(want, got) {
			t.Fatalf("base %d: rebased delta CNF diverges from cold convert", newBase)
		}
	}
}

// TestShardSetLen covers the nil-safe length accessor.
func TestShardSetLen(t *testing.T) {
	var nilSet *ShardSet
	if nilSet.Len() != 0 {
		t.Fatal("nil ShardSet should have length 0")
	}
	_, set := ConvertShardsDelta(3, []Formula{V(1), V(2)}, nil, 1)
	if set.Len() != 2 {
		t.Fatalf("Len = %d, want 2", set.Len())
	}
}
