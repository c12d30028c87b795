package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"testing"

	"netarch/internal/catalog"
	"netarch/internal/intlin"
	"netarch/internal/logic"
	"netarch/internal/sat"
)

// baseSnapshotMagic and baseSnapshotVersion head every snapshotBase
// envelope, the byte form of a compiled base the golden hashes pin.
var baseSnapshotMagic = [8]byte{'N', 'A', 'B', 'A', 'S', 'E', 1, '\n'}

const baseSnapshotVersion = 13

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendLit(buf []byte, l sat.Lit) []byte {
	return binary.AppendVarint(buf, int64(l))
}

func appendInt(buf []byte, a intlin.Int) []byte {
	buf = binary.AppendUvarint(buf, uint64(a.Width()))
	for i := 0; i < a.Width(); i++ {
		buf = appendLit(buf, a.Bit(i))
	}
	return binary.AppendUvarint(buf, uint64(a.Max()))
}

// snapshotBase serializes a frozen compiled base: magic, version, the
// given KB hash, the shape fingerprint, the slice identity, the
// vocabulary names, the arithmetic true literal, the selectors, the
// coresUsed/coresTotal/costTotal bit vectors and the solver snapshot,
// sealed by a CRC32-IEEE. Two bases with equal envelopes are the same
// base, so tests compare bases by these bytes.
func snapshotBase(c *compiled, kbHash [32]byte) []byte {
	solverSnap := c.solver.Snapshot()
	fp := c.sc.fingerprint()
	nNames := c.vocab.Len()

	buf := make([]byte, 0, len(solverSnap)+len(fp)+16*nNames+1024)
	buf = append(buf, baseSnapshotMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, baseSnapshotVersion)
	buf = append(buf, kbHash[:]...)
	buf = appendString(buf, fp)
	buf = appendString(buf, c.sliceID)

	buf = binary.AppendUvarint(buf, uint64(nNames))
	for v := 1; v <= nNames; v++ {
		buf = appendString(buf, c.vocab.Name(logic.Var(v)))
	}

	buf = appendLit(buf, c.arith.True())
	buf = binary.AppendUvarint(buf, uint64(len(c.selectors)))
	for _, s := range c.selectors {
		buf = appendString(buf, s.name)
		buf = appendString(buf, s.note)
		buf = appendLit(buf, s.lit)
	}
	buf = appendInt(buf, c.coresUsed)
	buf = appendInt(buf, c.coresTotal)
	buf = appendInt(buf, c.costTotal)

	buf = binary.AppendUvarint(buf, uint64(len(solverSnap)))
	buf = append(buf, solverSnap...)

	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// TestCompiledBaseGolden pins the bytes of compiled bases across commits:
// the SHA-256 of the solver snapshot straight out of compileUnprobed
// (exactly the clauses the compiler emits) and of the snapshotBase
// envelope after the compile-time probe (learnt clauses, phases and
// activities included), for each distinct §5.1 base shape and one
// sliced shape of the 5k-SKU catalog. The envelope is written with a
// zero KB hash, so only the base itself is pinned.
//
// A compile refactor that claims "byte-identical bases" must pass this
// test unedited. Re-pin the hashes only for an intended encoding or
// search change, and record the reason in CHANGES.md.
func TestCompiledBaseGolden(t *testing.T) {
	golden := []struct {
		scenario         string
		sliced           bool // over the 5k-SKU catalog, sliced
		unprobed, probed string
	}{
		{"inference_app", false,
			"6021969fa174889ae2aa2b920bdb81ea14dc55644d626878ab3a451cec29d883",
			"866df2d5471de77ee6a108bd70a1a09534f597733969d3e3a89354a2a421b667"},
		{"q1-grown", false,
			"aeb1adeffcd0ef8e9a4e8dff9d5721201dcc83c550a0d5b1fcaa7f85daba3ef9",
			"d65cdaa40ebdf51791ed9cbad6aa7808ded95e45b425634e09e5209f2b43d972"},
		{"q3-no-pooling", false,
			"78cced84acb62b2171aed4be27aa9707c914d2f16694908928b0b005bbd226f1",
			"3a473947402546a6d6451f7411758f338a2ea1a77e9b05e24f446aabd198240a"},
		{"q3-pooling", false,
			"5b494b7722baaea4297f2e8674a4cb7490523566cc5a29b660493ec67395c65a",
			"d6b782ffff0ea98ee3d3fdeb72f0053fdd25d3e3f1313f8edf23a5fd9b9f9468"},
		{"inference_app", true,
			"d06ed5ba28a359e4f6781bdd12367ac54558764964d5fa2945d0fb66a7b22474",
			"a8e269c6ab1b1d76460743a24b459b8ccdb1434160a055045b41eb58f09f189f"},
	}
	scs := section51Scenarios()
	caseStudy := caseStudyKB()
	scaled := catalog.ScaledCatalog(5000)
	for _, g := range golden {
		name, k, sub := g.scenario, caseStudy, caseStudy
		if g.sliced {
			name, k = "5k-sliced-"+name, scaled
		}
		t.Run(name, func(t *testing.T) {
			sc := scs[g.scenario]
			shape := baseShape(&sc)
			var sl *kbSlice
			if g.sliced {
				sl = computeSlice(k, deriveSliceRequest(k, &sc, &shape))
				if sl.skusKept >= sl.skusIn {
					t.Fatalf("slice kept %d of %d SKUs", sl.skusKept, sl.skusIn)
				}
				sub = sl.sub
			}
			raw, err := compileUnprobed(sub, &shape)
			if err != nil {
				t.Fatal(err)
			}
			probed, err := compile(k, &shape, sl)
			if err != nil {
				t.Fatal(err)
			}
			unprobedSum := sha256.Sum256(raw.solver.Snapshot())
			probedSum := sha256.Sum256(snapshotBase(probed, [32]byte{}))
			if got := hex.EncodeToString(unprobedSum[:]); got != g.unprobed {
				t.Errorf("unprobed solver snapshot sha256 %s, pinned %s", got, g.unprobed)
			}
			if got := hex.EncodeToString(probedSum[:]); got != g.probed {
				t.Errorf("probed base envelope sha256 %s, pinned %s", got, g.probed)
			}
		})
	}
}
