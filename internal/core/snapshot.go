package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"netarch/internal/intlin"
	"netarch/internal/kb"
	"netarch/internal/logic"
	"netarch/internal/sat"
)

// This file defines the on-disk format for frozen compiled bases — the
// persistence half of DESIGN.md §7's cache (§9 documents the format). A
// base snapshot is a self-describing envelope around a sat.Solver
// snapshot:
//
//	magic (8B) | envelope version (u32) | KB content hash (32B) |
//	scenario fingerprint | slice identity | vocabulary names | arith
//	true literal | selectors (name, note, lit) | coresUsed/coresTotal/
//	costTotal bit vectors | solver snapshot | CRC32-IEEE over everything
//	above
//
// The solver snapshot is taken after the compile-time probe (see
// compiled.probe), so it carries the probe's saved phases, VSIDS
// activities and learnt clauses: a revived base starts every query from
// the same search prior as the process that compiled it.
//
// Everything else a compiled base carries (workloads, derived context,
// system/hardware literal maps, provides, sysNames, flow totals) is a
// deterministic function of the KB and the shape scenario, so the decoder
// recomputes it instead of trusting the file; the KB hash and fingerprint
// checks guarantee both sides agree on the inputs. A snapshot can
// therefore never disagree with a fresh compile about anything but the
// solver state — and the solver section restores byte-identically by
// construction (sat.RestoreSnapshot).
//
// Failure taxonomy: every decode failure wraps ErrSnapshotCorrupt,
// ErrSnapshotVersion, ErrSnapshotStale, or ErrSnapshotMismatch. The cache
// tier treats all four as "this file is useless": quarantine + recompile,
// never a query error.

// baseSnapshotMagic identifies a netarch base snapshot file.
var baseSnapshotMagic = [8]byte{'N', 'A', 'B', 'A', 'S', 'E', 1, '\n'}

// baseSnapshotVersion is the envelope format version; bump on any
// incompatible change (the embedded solver section carries its own).
// v2: the arena solver snapshot (sat snapshot v2) plus the sharded CNF
// conversion, which renumbers auxiliary variables relative to v1 bases.
// v3: the warm-start profile section between the arithmetic bit vectors
// and the solver snapshot.
// v4: the powerTotal/portTotal arithmetic bit vectors (MaxSAT cost
// models) after costTotal — and the circuits themselves change the
// compiled solver state, so v3 bases are unusable anyway.
// v5: the relevance-slice identity string after the fingerprint (empty
// for full-KB bases). A sliced base's derived state must be rebuilt
// from the recomputed sub-KB, so the slice a file was compiled under
// has to be named — and verified — before restore trusts it.
// v6: the powerTotal/portTotal bit vectors are gone. Bases no longer
// carry those circuits (queries that minimize power or ports build them
// on their own instance), so the solver state differs from v5 bases too.
// v7: every catalog compiles with the ladder at-most-one and per-kind
// muxed cost totals. Seed-scale v6 bases hold pairwise at-most-one
// clauses and a per-SKU adder chain the compiler no longer produces.
// v8: the embedded solver section is sat snapshot v3, which no longer
// carries a restart unit.
// v9: bases are no longer simplified after compile. A v8 base had
// satisfied and subsumed clauses removed and strengthened clauses
// re-added, so its solver state differs from what the compiler emits.
// v10: the warm-start profile section is gone, and the solver section
// holds the base after its compile-time probe. A v9 file holds an
// unprobed base, whose queries would search differently.
// v11: the arithmetic circuits fold constant gate inputs and encode each
// SKU-guarded total as direct guard → bit clauses. A v10 file holds the
// larger circuits the compiler no longer emits.
// v12: the embedded solver section is sat snapshot v4, which keeps
// binary clauses in the watch lists only and gives original clauses a
// one-word header.
// v13: the embedded solver section is sat snapshot v5, which holds the
// frozen base's problem binaries as a shared implication table. A v12
// base would search in the old watch order; the version gate rejects it
// and the base recompiles.
const baseSnapshotVersion = 13

// Snapshot decode failure classes.
var (
	// ErrSnapshotCorrupt: structurally invalid bytes (bad magic, bad CRC,
	// truncation, out-of-range references, vocabulary drift).
	ErrSnapshotCorrupt = errors.New("core: corrupt base snapshot")
	// ErrSnapshotVersion: a format version this build does not speak.
	ErrSnapshotVersion = errors.New("core: unsupported base snapshot version")
	// ErrSnapshotStale: the snapshot was compiled from a different
	// knowledge base (content hash mismatch).
	ErrSnapshotStale = errors.New("core: base snapshot stale (knowledge base changed)")
	// ErrSnapshotMismatch: the snapshot is for a different scenario shape.
	ErrSnapshotMismatch = errors.New("core: base snapshot fingerprint mismatch")
)

// kbContentHash fingerprints the knowledge base content: the SHA-256 of
// its compact JSON encoding, which the encoder writes straight into the
// hash. encoding/json sorts map keys, so equal KBs hash equally. The
// hash skips the indentation kb.Save adds for people to read, which cost
// about a quarter of a disk-warm cold start. Snapshots written under
// the indented encoding's hash fail the envelope's hash check as stale
// and recompile.
func kbContentHash(k *kb.KB) [32]byte {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(k); err != nil {
		// Encoding a KB into a hash cannot fail; a zero hash would alias
		// distinct KBs, so fail loudly in development.
		panic(fmt.Sprintf("core: hashing knowledge base: %v", err))
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendLit(buf []byte, l sat.Lit) []byte {
	return binary.AppendVarint(buf, int64(l))
}

func appendInt(buf []byte, a intlin.Int) []byte {
	bits := a.Bits()
	buf = binary.AppendUvarint(buf, uint64(len(bits)))
	for _, l := range bits {
		buf = appendLit(buf, l)
	}
	return binary.AppendUvarint(buf, uint64(a.Max()))
}

// snapshotBase serializes a frozen compiled base. The base must come out
// of compileBaseWith (frozen, level-0 solver); specialized per-query instances
// are not snapshot material.
func snapshotBase(c *compiled, kbHash [32]byte) []byte {
	solverSnap := c.solver.Snapshot()
	fp := c.sc.fingerprint()
	names := c.vocab.Names()

	buf := make([]byte, 0, len(solverSnap)+len(fp)+16*len(names)+1024)
	buf = append(buf, baseSnapshotMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, baseSnapshotVersion)
	buf = append(buf, kbHash[:]...)
	buf = appendString(buf, fp)
	buf = appendString(buf, c.sliceID)

	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, n := range names {
		buf = appendString(buf, n)
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

// envReader is a bounds-checked cursor over untrusted envelope bytes.
type envReader struct {
	b   []byte
	off int
}

func (r *envReader) rem() int { return len(r.b) - r.off }

func (r *envReader) fail(what string) error {
	return fmt.Errorf("%w: truncated or oversized %s at offset %d", ErrSnapshotCorrupt, what, r.off)
}

func (r *envReader) take(n int, what string) ([]byte, error) {
	if n < 0 || r.rem() < n {
		return nil, r.fail(what)
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *envReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, r.fail(what)
	}
	r.off += n
	return v, nil
}

// count reads a length prefix bounded by the remaining input (each
// counted element occupies ≥ 1 byte), so allocations stay O(input).
func (r *envReader) count(what string) (int, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > uint64(r.rem()) {
		return 0, r.fail(what)
	}
	return int(v), nil
}

func (r *envReader) str(what string) (string, error) {
	n, err := r.count(what)
	if err != nil {
		return "", err
	}
	b, err := r.take(n, what)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *envReader) lit(what string, nVars int) (sat.Lit, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, r.fail(what)
	}
	r.off += n
	if v == 0 || v > int64(nVars) || v < -int64(nVars) {
		return 0, fmt.Errorf("%w: %s literal %d out of solver range", ErrSnapshotCorrupt, what, v)
	}
	return sat.Lit(v), nil
}

func (r *envReader) intlinInt(what string, nVars int) (intlin.Int, error) {
	n, err := r.count(what)
	if err != nil {
		return intlin.Int{}, err
	}
	bits := make([]sat.Lit, n)
	for i := range bits {
		if bits[i], err = r.lit(what, nVars); err != nil {
			return intlin.Int{}, err
		}
	}
	max, err := r.uvarint(what)
	if err != nil {
		return intlin.Int{}, err
	}
	if max > 1<<62 {
		return intlin.Int{}, fmt.Errorf("%w: %s maximum %d out of range", ErrSnapshotCorrupt, what, max)
	}
	return intlin.RestoreInt(bits, int64(max)), nil
}

// restoreBaseSlice decodes a base snapshot for the given shape scenario,
// validating it against the given KB revision's content hash and the
// shape's fingerprint. On success the returned compiled is
// indistinguishable from a fresh compile of the shape against k — same
// vocabulary, same selector list, and a solver that searches
// byte-identically. k and kbHash must be captured together (diskConfig
// does) so the derived state recomputed below comes from the exact KB
// the hash vouches for.
//
// sl is the expected relevance slice: nil demands a full-KB snapshot
// (empty slice identity); non-nil demands a snapshot compiled under
// exactly that slice, and rebuilds the derived state from the slice's
// sub-KB — the same KB revision the compile saw. A slice-identity
// mismatch is ErrSnapshotMismatch: like a fingerprint alias, the file
// answers a different question than the caller's.
func restoreBaseSlice(k *kb.KB, shape *Scenario, kbHash [32]byte, data []byte, sl *kbSlice) (*compiled, error) {
	// Integrity first: CRC over everything before the trailing checksum.
	// Random corruption dies here, cheaply, before any structural work.
	if len(data) < len(baseSnapshotMagic)+4+32+4 {
		return nil, fmt.Errorf("%w: %d bytes is below the minimum envelope", ErrSnapshotCorrupt, len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrSnapshotCorrupt)
	}

	r := &envReader{b: body}
	magic, err := r.take(len(baseSnapshotMagic), "magic")
	if err != nil {
		return nil, err
	}
	if string(magic) != string(baseSnapshotMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	verBytes, err := r.take(4, "version")
	if err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint32(verBytes); v != baseSnapshotVersion {
		return nil, fmt.Errorf("%w: version %d (have %d)", ErrSnapshotVersion, v, baseSnapshotVersion)
	}
	hash, err := r.take(32, "knowledge-base hash")
	if err != nil {
		return nil, err
	}
	if string(hash) != string(kbHash[:]) {
		return nil, ErrSnapshotStale
	}
	fp, err := r.str("fingerprint")
	if err != nil {
		return nil, err
	}
	if fp != shape.fingerprint() {
		return nil, ErrSnapshotMismatch
	}
	sliceID, err := r.str("slice identity")
	if err != nil {
		return nil, err
	}
	wantSliceID := ""
	ck := k
	if sl != nil {
		wantSliceID = sl.id
		ck = sl.sub
	}
	if sliceID != wantSliceID {
		return nil, fmt.Errorf("%w: slice identity %q (want %q)", ErrSnapshotMismatch, sliceID, wantSliceID)
	}

	nNames, err := r.count("vocabulary size")
	if err != nil {
		return nil, err
	}
	names := make([]string, nNames)
	for i := range names {
		if names[i], err = r.str("vocabulary name"); err != nil {
			return nil, err
		}
	}

	// The solver section sits at the end; literals referenced by the
	// envelope are validated against its variable count, so decode order
	// is: scan ahead is unnecessary — the envelope stores literal fields
	// before the solver, but all of them fit in int64 varints and are
	// range-checked after the solver restores. Collect them raw first.
	trueLitRaw, err := r.lit("true", 1<<30)
	if err != nil {
		return nil, err
	}
	nSel, err := r.count("selector count")
	if err != nil {
		return nil, err
	}
	type rawSelector struct {
		name, note string
		lit        sat.Lit
	}
	rawSels := make([]rawSelector, nSel)
	for i := range rawSels {
		if rawSels[i].name, err = r.str("selector name"); err != nil {
			return nil, err
		}
		if rawSels[i].note, err = r.str("selector note"); err != nil {
			return nil, err
		}
		if rawSels[i].lit, err = r.lit("selector", 1<<30); err != nil {
			return nil, err
		}
	}
	coresUsed, err := r.intlinInt("coresUsed", 1<<30)
	if err != nil {
		return nil, err
	}
	coresTotal, err := r.intlinInt("coresTotal", 1<<30)
	if err != nil {
		return nil, err
	}
	costTotal, err := r.intlinInt("costTotal", 1<<30)
	if err != nil {
		return nil, err
	}

	nSolver, err := r.count("solver section")
	if err != nil {
		return nil, err
	}
	solverSnap, err := r.take(nSolver, "solver section")
	if err != nil {
		return nil, err
	}
	if r.rem() != 0 {
		return nil, fmt.Errorf("%w: %d trailing envelope bytes", ErrSnapshotCorrupt, r.rem())
	}
	solver, err := sat.RestoreSnapshot(solverSnap)
	if err != nil {
		return nil, fmt.Errorf("%w: solver section: %v", ErrSnapshotCorrupt, err)
	}

	// Cross-validate every envelope literal against the restored solver's
	// variable space (1<<30 above only bounded the varint range).
	nVars := solver.NumVars()
	checkLit := func(what string, l sat.Lit) error {
		if int(l.Var()) > nVars {
			return fmt.Errorf("%w: %s literal %d beyond solver variables (%d)", ErrSnapshotCorrupt, what, l, nVars)
		}
		return nil
	}
	if err := checkLit("true", trueLitRaw); err != nil {
		return nil, err
	}
	for _, s := range rawSels {
		if err := checkLit("selector", s.lit); err != nil {
			return nil, err
		}
	}
	for _, a := range []intlin.Int{coresUsed, coresTotal, costTotal} {
		for _, l := range a.Bits() {
			if err := checkLit("arith", l); err != nil {
				return nil, err
			}
		}
	}
	if nNames > nVars {
		return nil, fmt.Errorf("%w: vocabulary (%d) larger than solver variables (%d)", ErrSnapshotCorrupt, nNames, nVars)
	}
	// Reassemble the compiled base: serialized solver + envelope state,
	// everything else recomputed from the KB and the shape exactly as
	// compileBaseWith derives it.
	c := &compiled{
		kb:         ck,
		sc:         shape,
		vocab:      logic.RestoreVocabulary(names),
		solver:     solver,
		arith:      intlin.Attach(solver, trueLitRaw),
		sysLit:     make(map[string]sat.Lit),
		hwLit:      make(map[string]sat.Lit),
		selByName:  make(map[string]int, nSel),
		pinnedCtx:  make(map[string]bool),
		derivedCtx: make(map[string]bool),
		frozen:     true,
		coresUsed:  coresUsed,
		coresTotal: coresTotal,
		costTotal:  costTotal,
	}
	c.selectors = make([]selector, nSel)
	for i, s := range rawSels {
		c.selectors[i] = selector{name: s.name, note: s.note, lit: s.lit}
		if _, dup := c.selByName[s.name]; dup {
			return nil, fmt.Errorf("%w: duplicate selector %q", ErrSnapshotCorrupt, s.name)
		}
		c.selByName[s.name] = i
	}
	if err := c.pickWorkloads(); err != nil {
		// The fingerprint matched, so the shape's workloads exist in the
		// KB the hash vouches for; reaching here means the file lied.
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	c.deriveContext()

	// System/hardware literals resolve through the restored vocabulary;
	// a fresh compile allocated them before any Tseitin variable, so they
	// must all be present — absence means vocabulary drift.
	for i := range ck.Systems {
		name := ck.Systems[i].Name
		v := c.vocab.Lookup("system:" + name)
		if v == 0 {
			return nil, fmt.Errorf("%w: system %q missing from vocabulary", ErrSnapshotCorrupt, name)
		}
		c.sysLit[name] = sat.Lit(v)
	}
	for _, h := range c.allowedHardwareAll() {
		v := c.vocab.Lookup("hw:" + h.Name)
		if v == 0 {
			return nil, fmt.Errorf("%w: hardware %q missing from vocabulary", ErrSnapshotCorrupt, h.Name)
		}
		c.hwLit[h.Name] = sat.Lit(v)
	}
	c.sysNames = make([]string, 0, len(c.sysLit))
	for name := range c.sysLit {
		c.sysNames = append(c.sysNames, name)
	}
	sort.Strings(c.sysNames)
	c.provides = make(map[kb.Property]bool)
	for i := range ck.Systems {
		for _, p := range ck.Systems[i].Solves {
			c.provides[p] = true
		}
	}
	if sl != nil {
		c.sliceID = sl.id
		c.sliceReq = sl.req
	}
	return c, nil
}
