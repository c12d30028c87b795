package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"netarch/internal/kb"
)

// The disk tier of the compiled-base cache: frozen bases are persisted as
// base-snapshot files (snapshot.go) named by the SHA-256 of their shape
// fingerprint, so the CLI and other short-lived processes skip the first
// compile too. Lookup order is memory → disk → compile
// (cache.go:baseFor).
//
// Safety model: a cache file can change how fast an answer arrives, never
// what it is. Every file is CRC-, version-, KB-hash-, and fingerprint-
// checked on load. A structurally invalid file (bad CRC/magic/version,
// fingerprint alias) counts as DiskCorrupt and is quarantined — renamed
// with a ".bad" suffix, preserving the evidence without retrying it
// forever. A file that is merely stale (written from a different KB
// revision) counts as DiskStale and is left exactly where it is: it is
// not evidence of corruption, a process still on that revision can keep
// using it, and a live UpdateKB rewrites it in place. Either way the
// lookup falls through to a clean recompile. Writes go through a temp
// file + rename, so concurrent processes — or a crash mid-write — can
// never publish a torn file. Eviction is mtime-ordered and bounded by
// both file count and total bytes, counting quarantined ".bad" files
// against the same budget so repeated corruption cannot grow the
// directory without bound; loads re-touch their file so hot shapes
// survive.

const (
	// baseSnapshotExt is the extension of live cache files; quarantined
	// files get baseSnapshotExt + quarantineExt.
	baseSnapshotExt = ".nabase"
	quarantineExt   = ".bad"

	// diskCacheFiles and diskCacheBytes bound the disk tier: eviction
	// runs after each write, oldest mtime first, until both hold.
	diskCacheFiles = 256
	diskCacheBytes = 1 << 30

	// maxSnapshotFileSize rejects absurd files before reading them into
	// memory; no legitimate base snapshot gets anywhere near it.
	maxSnapshotFileSize = 1 << 30
)

// SetCacheDir enables the persistent cache tier in the given directory
// (created if missing) and fingerprints the current knowledge base to key
// the snapshots. An empty dir disables the tier. Returns any error from
// creating the directory. Safe to call concurrently with queries, but the
// KB must not be mutated during the call (mutate + InvalidateCache first).
func (e *Engine) SetCacheDir(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cacheDir = dir
	if dir != "" {
		e.kbHash = kbContentHash(e.kbCur)
	} else {
		e.kbHash = [32]byte{}
	}
	return nil
}

// diskConfig snapshots the disk-tier configuration under the read lock.
// The KB pointer is captured in the same critical section as the KB hash,
// so restore-time derived-state recomputation always runs against the
// exact KB revision the hash vouches for, even mid-UpdateKB.
func (e *Engine) diskConfig() (dir string, hash [32]byte, k *kb.KB, maxFiles int, maxBytes int64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cacheDir, e.kbHash, e.kbCur, e.diskMaxFiles, e.diskMaxBytes
}

// snapshotPath is the cache file for a shape fingerprint. The name hashes
// the fingerprint: fingerprints contain user-controlled strings (workload
// names, SKU names) that must not reach the filesystem namespace.
func snapshotPath(dir, fingerprint string) string {
	sum := sha256.Sum256([]byte(fingerprint))
	return filepath.Join(dir, hex.EncodeToString(sum[:])+baseSnapshotExt)
}

// loadDiskBase tries to revive the base for a shape from disk. It returns
// nil on any miss — no tier configured, no file, a stale file (counted,
// left in place), or a file that failed structural validation (counted,
// quarantined, never retried). The caller falls through to compileBase,
// so disk problems are invisible to queries.
// The fingerprint parameter is the full cache key (shape fingerprint
// plus slice-identity suffix); sl, when non-nil, is the slice the
// caller expects the file to have been compiled under.
func (e *Engine) loadDiskBase(shape *Scenario, fingerprint string, sl *kbSlice) *compiled {
	dir, hash, k, _, _ := e.diskConfig()
	if dir == "" {
		return nil
	}
	path := snapshotPath(dir, fingerprint)
	info, err := os.Stat(path)
	if err != nil {
		e.bump(&e.stats.DiskMisses)
		return nil
	}
	if info.Size() > maxSnapshotFileSize {
		e.bump(&e.stats.DiskCorrupt)
		e.quarantine(path)
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		e.bump(&e.stats.DiskMisses)
		return nil
	}
	base, err := restoreBaseSlice(k, shape, hash, data, sl)
	if err != nil {
		if errors.Is(err, ErrSnapshotStale) {
			// Written from a different KB revision — not corruption.
			// Leave the file: the process on that revision may still be
			// using it, and an UpdateKB for this revision rewrites it.
			e.bump(&e.stats.DiskStale)
			return nil
		}
		e.bump(&e.stats.DiskCorrupt)
		e.quarantine(path)
		return nil
	}
	// Refresh the mtime so eviction treats revived shapes as hot.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return base
}

// writeDiskBase persists a freshly compiled base, then enforces the
// eviction bounds. Best-effort: failures are silent (the cache is an
// accelerator, not a store of record), but successful writes are counted
// and reported.
func (e *Engine) writeDiskBase(base *compiled, fingerprint string) bool {
	dir, hash, _, maxFiles, maxBytes := e.diskConfig()
	if dir == "" {
		return false
	}
	data := snapshotBase(base, hash)
	e.diskMu.Lock()
	defer e.diskMu.Unlock()
	tmp, err := os.CreateTemp(dir, "nabase-*.tmp")
	if err != nil {
		return false
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		return false
	}
	// rename is atomic within the directory: concurrent readers see the
	// old file or the new one, never a torn mix.
	if err := os.Rename(tmp.Name(), snapshotPath(dir, fingerprint)); err != nil {
		_ = os.Remove(tmp.Name())
		return false
	}
	e.bump(&e.stats.DiskWrites)
	e.evictDisk(dir, maxFiles, maxBytes)
	return true
}

// FlushDiskCache writes a snapshot file for every in-memory base that
// does not already have one on disk, and returns how many it wrote.
// Normal operation writes snapshots synchronously at compile time, so
// this is usually a no-op; it matters when the cache directory was
// configured (or the disk tier recovered) after bases were compiled, and
// it gives a draining server a cheap "everything warm is persisted"
// guarantee before exit. No-op without a cache directory.
func (e *Engine) FlushDiskCache() int {
	dir, _, _, _, _ := e.diskConfig()
	if dir == "" {
		return 0
	}
	type entry struct {
		key  string
		base *compiled
	}
	e.mu.RLock()
	entries := make([]entry, 0, len(e.bases))
	for key, base := range e.bases {
		entries = append(entries, entry{key, base})
	}
	e.mu.RUnlock()
	written := 0
	for _, ent := range entries {
		if _, err := os.Stat(snapshotPath(dir, ent.key)); err == nil {
			continue
		}
		if e.writeDiskBase(ent.base, ent.key) {
			written++
		}
	}
	return written
}

// quarantine renames a rejected cache file out of the lookup namespace so
// it is never re-parsed but stays on disk for diagnosis.
func (e *Engine) quarantine(path string) {
	_ = os.Rename(path, path+quarantineExt)
}

// evictDisk removes the oldest cache files until the directory is within
// both bounds. Quarantined ".bad" files count against the same budget and
// age out through the same mtime order — excluding them (as the scan once
// did, via filepath.Ext matching only ".bad" on quarantined names) let
// repeated corruption grow the directory without bound, since quarantine
// renames a file instead of deleting it. Caller holds diskMu.
func (e *Engine) evictDisk(dir string, maxFiles int, maxBytes int64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	type fileInfo struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []fileInfo
	var totalBytes int64
	for _, ent := range entries {
		name := ent.Name()
		live := filepath.Ext(name) == baseSnapshotExt
		quarantined := strings.HasSuffix(name, baseSnapshotExt+quarantineExt)
		if ent.IsDir() || (!live && !quarantined) {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		files = append(files, fileInfo{filepath.Join(dir, name), info.Size(), info.ModTime()})
		totalBytes += info.Size()
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	for i := 0; i < len(files) && (len(files)-i > maxFiles || totalBytes > maxBytes); i++ {
		if os.Remove(files[i].path) == nil {
			e.bump(&e.stats.DiskEvictions)
		}
		totalBytes -= files[i].size
	}
}
