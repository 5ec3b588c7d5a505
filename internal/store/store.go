// Package store is the Skyline server's durable, content-addressed
// result tier: completed exploration responses —
// /explore NDJSON result sets (including top-K selections and Pareto
// frontiers) and /grid.svg heatmaps — are spilled to disk keyed by a
// canonical hash of the request identity, and repeat requests after a
// process restart are answered from I/O instead of CPU.
//
// The design is a small "triangle": bulk artifacts on disk, a compact
// in-memory index keyed by content hash, and the engine as the
// recompute path of last resort. Every failure mode degrades toward
// recompute, never toward wrong bytes:
//
//   - Writes are crash-safe: an artifact is written to a temp file,
//     fsynced, and renamed into place. A crash mid-write leaves a torn
//     temp file that the next Open discards; a crash mid-rename leaves
//     either the old state or the complete new artifact.
//   - Every artifact carries a SHA-256 checksum of its payload,
//     verified on every read. A mismatch quarantines the artifact —
//     moved aside, counted, never served — and reports a miss.
//   - Transient I/O errors retry with capped backoff; persistent
//     failure trips the store into a recompute-only degraded state for
//     a cooldown window, surfaced via Stats (and from there on the
//     Skyline server's /healthz and /metrics).
//
// On-disk layout under the store directory:
//
//	objects/<hh>/<hash>   artifacts, named by the hex SHA-256 of their
//	                      canonical key (hh = first two hex digits)
//	tmp/                  in-progress writes; discarded at Open
//	quarantine/           artifacts that failed verification
//
// The artifact format, the key contract and the degraded-mode
// semantics are specified in docs/PERSISTENCE.md.
//
// A Store is safe for concurrent use. The zero-value *Store (nil) is
// a valid "store off" tier: Get always misses and Put is a no-op.
package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
)

// artifactMagic heads every artifact: a format version tag so a future
// layout change can coexist with old artifacts instead of serving them
// wrongly decoded.
const artifactMagic = "reprostore1"

// maxHeaderLen bounds the header line: magic + space + 64 hex digest
// digits + space + a decimal length + newline.
const maxHeaderLen = len(artifactMagic) + 1 + 64 + 1 + 20 + 1

const (
	// retryAttempts is how many times a transient I/O failure is tried
	// before the operation is abandoned (and counted as an error).
	retryAttempts = 3
	// retryBackoff is the first inter-attempt sleep; it doubles per
	// attempt (2ms, 4ms) so a glitching disk gets a beat to recover
	// without a request ever stalling for long.
	retryBackoff = 2 * time.Millisecond
	// degradeThreshold is how many consecutive failed operations (each
	// already retried) trip the store into the degraded state.
	degradeThreshold = 3
	// defaultCooldown is how long a tripped store stays recompute-only
	// before probing the disk again (half-open).
	defaultCooldown = 15 * time.Second
)

// entry is one indexed artifact: its key hash and on-disk size.
type entry struct {
	hash string
	size int64
}

// Store is a bounded on-disk artifact store. Construct with Open.
type Store struct {
	dir   string
	limit int64

	// mu guards the index (entries, lru, bytes). File reads and writes
	// happen outside it so a slow disk never serializes lookups;
	// evictions and quarantines re-acquire it to fix the index.
	mu      sync.Mutex
	entries map[string]*list.Element // key hash → lru element holding *entry
	lru     *list.List               // front = most recently used
	bytes   int64

	hits          atomic.Uint64
	misses        atomic.Uint64
	puts          atomic.Uint64
	quarantined   atomic.Uint64
	readErrors    atomic.Uint64
	writeErrors   atomic.Uint64
	evictions     atomic.Uint64
	degradedTrips atomic.Uint64

	recovered     int // artifacts the Open scan accepted
	discardedTemp int // torn temp files the Open scan deleted

	// consecFails counts consecutive failed operations; at
	// degradeThreshold the store trips degraded until degradedUntil
	// (UnixNano). quarSeq disambiguates quarantine file names.
	consecFails   atomic.Int64
	degradedUntil atomic.Int64
	quarSeq       atomic.Uint64

	// cooldown and now are fixed at Open; tests shorten the cooldown
	// and pin the clock.
	cooldown time.Duration
	now      func() time.Time
}

// Stats is a point-in-time store snapshot. Counters are cumulative
// since Open; Artifacts/Bytes describe the current index.
type Stats struct {
	Artifacts  int   `json:"artifacts"`
	Bytes      int64 `json:"bytes"`
	LimitBytes int64 `json:"limit_bytes"`
	// Hits/Misses count Get outcomes (a degraded-mode Get is a miss).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Puts counts artifacts durably written (spills).
	Puts uint64 `json:"puts"`
	// Quarantined counts artifacts moved aside after failing
	// verification — at Open or on a read — and never served.
	Quarantined uint64 `json:"quarantined"`
	// ReadErrors/WriteErrors count operations abandoned after their
	// retry budget (verification failures are Quarantined, not errors).
	ReadErrors  uint64 `json:"read_errors"`
	WriteErrors uint64 `json:"write_errors"`
	Evictions   uint64 `json:"evictions"`
	// RecoveredArtifacts/DiscardedTemp describe the Open scan: intact
	// artifacts re-indexed, and torn temp files deleted.
	RecoveredArtifacts int `json:"recovered_artifacts"`
	DiscardedTemp      int `json:"discarded_temp"`
	// Degraded is true while the store is in its recompute-only
	// cooldown window; DegradedTrips counts how often it got there.
	Degraded      bool   `json:"degraded"`
	DegradedTrips uint64 `json:"degraded_trips"`
}

// Open opens (creating if needed) the store rooted at dir, bounded to
// limitBytes of artifact data (0 = unbounded), and runs the recovery
// scan: torn temp files are discarded, artifacts with a malformed
// header or a size that contradicts it are quarantined, and the index
// is rebuilt from the survivors in modification-time order so the
// eviction order approximates the pre-restart recency order.
func Open(dir string, limitBytes int64) (*Store, error) {
	s := &Store{
		dir:      dir,
		limit:    limitBytes,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		cooldown: defaultCooldown,
		now:      time.Now,
	}
	for _, d := range []string{dir, s.objectsDir(), s.tmpDir(), s.quarantineDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	if err := s.discardTemp(); err != nil {
		return nil, err
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) objectsDir() string    { return filepath.Join(s.dir, "objects") }
func (s *Store) tmpDir() string        { return filepath.Join(s.dir, "tmp") }
func (s *Store) quarantineDir() string { return filepath.Join(s.dir, "quarantine") }

func (s *Store) objectPath(hash string) string {
	return filepath.Join(s.objectsDir(), hash[:2], hash)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// keyHash is the content address: the hex SHA-256 of the canonical key
// string. Callers own key canonicalization (docs/PERSISTENCE.md); the
// store only ever sees the opaque string.
func keyHash(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

// discardTemp deletes every leftover in tmp/ — a temp file can only
// exist here if a writer died between CreateTemp and rename, so each
// one is a torn write by definition.
func (s *Store) discardTemp() error {
	names, err := os.ReadDir(s.tmpDir())
	if err != nil {
		return fmt.Errorf("store: scanning tmp: %w", err)
	}
	for _, de := range names {
		if err := os.Remove(filepath.Join(s.tmpDir(), de.Name())); err == nil {
			s.discardedTemp++
		}
	}
	return nil
}

// scan rebuilds the index from objects/: each file's header is parsed
// and cross-checked against its size (the cheap torn-write detector —
// full payload verification happens on read), survivors are indexed in
// mtime order, and anything malformed is quarantined.
func (s *Store) scan() error {
	type found struct {
		hash  string
		size  int64
		mtime time.Time
	}
	var ok []found
	err := filepath.WalkDir(s.objectsDir(), func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		name := de.Name()
		info, ierr := de.Info()
		if ierr != nil {
			return nil // vanished mid-scan; nothing to index
		}
		if !validHash(name) || !s.headerMatches(path, info.Size()) {
			s.quarantineFile(path, name)
			return nil
		}
		ok = append(ok, found{hash: name, size: info.Size(), mtime: info.ModTime()})
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: scanning objects: %w", err)
	}
	// Oldest first, each pushed to the front: the newest artifact ends
	// up most recently used. Ties (same mtime) order by hash so the
	// rebuilt index is deterministic.
	sort.Slice(ok, func(i, j int) bool {
		if !ok[i].mtime.Equal(ok[j].mtime) {
			return ok[i].mtime.Before(ok[j].mtime)
		}
		return ok[i].hash < ok[j].hash
	})
	for _, f := range ok {
		e := &entry{hash: f.hash, size: f.size}
		s.entries[f.hash] = s.lru.PushFront(e)
		s.bytes += f.size
	}
	s.recovered = len(ok)
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return nil
}

// validHash reports whether name is a well-formed artifact file name
// (64 lowercase hex digits).
func validHash(name string) bool {
	if len(name) != 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// headerMatches reads just the artifact header and checks that the
// declared payload length is consistent with the file size.
func (s *Store) headerMatches(path string, fileSize int64) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	buf := make([]byte, maxHeaderLen)
	n, _ := f.Read(buf)
	headerLen, payloadLen, _, perr := parseHeader(buf[:n])
	return perr == nil && fileSize == int64(headerLen)+payloadLen
}

// errCorrupt marks verification failures — a bad header, a length
// mismatch, or a checksum mismatch. Unlike transient I/O errors it is
// deterministic: the artifact is quarantined, never retried.
var errCorrupt = errors.New("store: artifact failed verification")

// parseHeader parses "reprostore1 <sha256hex> <len>\n" from the head
// of b, returning the header's byte length, the declared payload
// length and digest.
func parseHeader(b []byte) (headerLen int, payloadLen int64, digest string, err error) {
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		return 0, 0, "", errCorrupt
	}
	fields := bytes.Split(b[:nl], []byte(" "))
	if len(fields) != 3 || string(fields[0]) != artifactMagic || len(fields[1]) != 64 {
		return 0, 0, "", errCorrupt
	}
	n, perr := strconv.ParseInt(string(fields[2]), 10, 64)
	if perr != nil || n < 0 {
		return 0, 0, "", errCorrupt
	}
	return nl + 1, n, string(fields[1]), nil
}

// encodeArtifact frames payload with its checksum header.
func encodeArtifact(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	var buf bytes.Buffer
	buf.Grow(maxHeaderLen + len(payload))
	fmt.Fprintf(&buf, "%s %s %d\n", artifactMagic, hex.EncodeToString(sum[:]), len(payload))
	buf.Write(payload)
	return buf.Bytes()
}

// decodeArtifact verifies raw against its header and returns the
// payload; any inconsistency is errCorrupt.
func decodeArtifact(raw []byte) ([]byte, error) {
	headerLen, payloadLen, digest, err := parseHeader(raw)
	if err != nil {
		return nil, err
	}
	payload := raw[headerLen:]
	if int64(len(payload)) != payloadLen {
		return nil, errCorrupt
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != digest {
		return nil, errCorrupt
	}
	return payload, nil
}

// withRetry runs op up to retryAttempts times with doubling backoff.
// op must be idempotent; corruption is detected after the I/O
// succeeds, so only transient errors ever reach the retry loop.
func withRetry(op func() error) error {
	var err error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if err = op(); err == nil {
			return nil
		}
		if attempt < retryAttempts-1 {
			time.Sleep(retryBackoff << attempt)
		}
	}
	return err
}

// isDegraded reports whether the store is inside a recompute-only
// cooldown window.
func (s *Store) isDegraded() bool {
	return s.now().UnixNano() < s.degradedUntil.Load()
}

// noteFailure records one abandoned operation; degradeThreshold
// consecutive failures trip the degraded state for one cooldown.
func (s *Store) noteFailure() {
	if s.consecFails.Add(1) >= degradeThreshold {
		s.consecFails.Store(0)
		s.degradedUntil.Store(s.now().Add(s.cooldown).UnixNano())
		s.degradedTrips.Add(1)
	}
}

func (s *Store) noteSuccess() { s.consecFails.Store(0) }

// Get returns the payload stored under key. Any failure is a miss:
// a degraded store short-circuits, an I/O error (after retries) counts
// a read error, and a verification failure quarantines the artifact.
// Safe for concurrent use; nil receiver always misses.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	if s.isDegraded() {
		s.misses.Add(1)
		return nil, false
	}
	h := keyHash(key)
	s.mu.Lock()
	el, ok := s.entries[h]
	if !ok {
		s.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	s.lru.MoveToFront(el)
	s.mu.Unlock()

	path := s.objectPath(h)
	var raw []byte
	err := withRetry(func() error {
		if ferr := faultinject.Fire(faultinject.SiteStoreRead); ferr != nil {
			return ferr
		}
		var rerr error
		raw, rerr = os.ReadFile(path)
		return rerr
	})
	if err != nil {
		s.readErrors.Add(1)
		s.noteFailure()
		s.misses.Add(1)
		return nil, false
	}
	payload, err := decodeArtifact(raw)
	if err != nil {
		s.quarantine(h)
		s.misses.Add(1)
		return nil, false
	}
	s.noteSuccess()
	s.hits.Add(1)
	return payload, true
}

// Put durably stores payload under key (temp file + fsync + rename),
// evicting least-recently-used artifacts past the byte limit. It
// reports whether the artifact was written: a degraded store, an
// over-limit payload, an empty payload, or an exhausted retry budget
// all decline. Safe for concurrent use; nil receiver declines.
func (s *Store) Put(key string, payload []byte) bool {
	if s == nil || len(payload) == 0 {
		return false
	}
	if s.isDegraded() {
		return false
	}
	buf := encodeArtifact(payload)
	if s.limit > 0 && int64(len(buf)) > s.limit {
		return false
	}
	h := keyHash(key)
	final := s.objectPath(h)
	err := withRetry(func() error { return s.writeObject(final, buf) })
	if err != nil {
		s.writeErrors.Add(1)
		s.noteFailure()
		return false
	}
	s.noteSuccess()

	s.mu.Lock()
	if el, ok := s.entries[h]; ok {
		e := el.Value.(*entry)
		s.bytes += int64(len(buf)) - e.size
		e.size = int64(len(buf))
		s.lru.MoveToFront(el)
	} else {
		e := &entry{hash: h, size: int64(len(buf))}
		s.entries[h] = s.lru.PushFront(e)
		s.bytes += e.size
	}
	s.evictLocked()
	s.mu.Unlock()
	s.puts.Add(1)
	return true
}

// writeObject is one crash-safe write attempt: temp file in tmp/,
// fsync, rename into objects/, best-effort directory sync. The fault
// seams fire before the write and before the rename so tests and the
// load generator can exercise exactly those failure points.
func (s *Store) writeObject(final string, buf []byte) error {
	if ferr := faultinject.Fire(faultinject.SiteStoreWrite); ferr != nil {
		return ferr
	}
	f, err := os.CreateTemp(s.tmpDir(), "put-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(buf)
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		if ferr := faultinject.Fire(faultinject.SiteStoreRename); ferr != nil {
			werr = ferr
		} else if werr = os.MkdirAll(filepath.Dir(final), 0o755); werr == nil {
			werr = os.Rename(tmp, final)
		}
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	if d, derr := os.Open(filepath.Dir(final)); derr == nil {
		_ = d.Sync() // rename durability is best-effort; the artifact itself is synced
		d.Close()
	}
	return nil
}

// quarantine moves the artifact for h aside and drops it from the
// index: it failed verification and must never be served again, but
// the evidence is kept for a human (or a test) to inspect.
func (s *Store) quarantine(h string) {
	s.mu.Lock()
	if el, ok := s.entries[h]; ok {
		e := el.Value.(*entry)
		s.lru.Remove(el)
		delete(s.entries, h)
		s.bytes -= e.size
	}
	s.mu.Unlock()
	s.quarantineFile(s.objectPath(h), h)
}

// quarantineFile moves path into quarantine/ (deleting it if even the
// move fails — a corrupt artifact must not stay servable) and counts.
func (s *Store) quarantineFile(path, name string) {
	dst := filepath.Join(s.quarantineDir(), fmt.Sprintf("%s.%d", name, s.quarSeq.Add(1)))
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
	s.quarantined.Add(1)
}

// evictLocked drops least-recently-used artifacts until the byte
// budget holds. Callers hold mu.
func (s *Store) evictLocked() {
	if s.limit <= 0 {
		return
	}
	for s.bytes > s.limit {
		el := s.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*entry)
		s.lru.Remove(el)
		delete(s.entries, e.hash)
		s.bytes -= e.size
		os.Remove(s.objectPath(e.hash))
		s.evictions.Add(1)
	}
}

// Stats returns a point-in-time snapshot. Nil receiver returns zeros.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	artifacts, size := len(s.entries), s.bytes
	s.mu.Unlock()
	return Stats{
		Artifacts:          artifacts,
		Bytes:              size,
		LimitBytes:         s.limit,
		Hits:               s.hits.Load(),
		Misses:             s.misses.Load(),
		Puts:               s.puts.Load(),
		Quarantined:        s.quarantined.Load(),
		ReadErrors:         s.readErrors.Load(),
		WriteErrors:        s.writeErrors.Load(),
		Evictions:          s.evictions.Load(),
		RecoveredArtifacts: s.recovered,
		DiscardedTemp:      s.discardedTemp,
		Degraded:           s.isDegraded(),
		DegradedTrips:      s.degradedTrips.Load(),
	}
}
