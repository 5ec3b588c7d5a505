package skyline

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/dse"
)

// compiledSpaceCap bounds a server's compiled-space table. A client
// mix rarely uses more than a handful of axis selections (the whole
// catalog, a per-UAV slice, a sensor comparison), and a miss costs one
// dse.Compile, so a small fixed table is enough.
const compiledSpaceCap = 16

// compiledSpace is one entry of the server's compiled-space table: an
// /explore axis selection resolved against the server's catalog once
// (dse.Compile), with the axis-determined head of every cell's NDJSON
// line encoded once. It is immutable after newCompiledSpace, so any
// number of requests share it without locking.
type compiledSpace struct {
	// key is the parsed, ordered axis selection (ParseExplore's lists,
	// which nothing mutates after parsing). Order is part of it: it
	// fixes the candidate order of the stream.
	key      dse.Space
	compiled *dse.Compiled
	// prefixes[offs[c]:offs[c+1]] is cell c's line head,
	// {"name":…,"uav":…,"compute":…,"algorithm":… — each value escaped
	// exactly as appendJSONString escapes it.
	prefixes []byte
	offs     []int
}

// newCompiledSpace compiles sp against cat and pre-encodes its cell
// prefixes.
func newCompiledSpace(cat *catalog.Catalog, sp dse.Space) (*compiledSpace, error) {
	c, err := dse.Compile(cat, sp)
	if err != nil {
		return nil, err
	}
	cs := &compiledSpace{key: sp, compiled: c, offs: make([]int, c.Cells()+1)}
	// Size the buffer for names that need no escaping (the common case),
	// so it is allocated once instead of regrown cell by cell.
	size := 0
	for i := range c.Cells() {
		name, sel := c.Cell(i)
		size += len(`{"name":"","uav":"","compute":"","algorithm":""`) + len(name) + len(sel.UAV) + len(sel.Compute) + len(sel.Algorithm)
	}
	cs.prefixes = make([]byte, 0, size)
	for i := range c.Cells() {
		name, sel := c.Cell(i)
		cs.prefixes = append(cs.prefixes, `{"name":`...)
		cs.prefixes = appendJSONString(cs.prefixes, name)
		cs.prefixes = append(cs.prefixes, `,"uav":`...)
		cs.prefixes = appendJSONString(cs.prefixes, sel.UAV)
		cs.prefixes = append(cs.prefixes, `,"compute":`...)
		cs.prefixes = appendJSONString(cs.prefixes, sel.Compute)
		cs.prefixes = append(cs.prefixes, `,"algorithm":`...)
		cs.prefixes = appendJSONString(cs.prefixes, sel.Algorithm)
		cs.offs[i+1] = len(cs.prefixes)
	}
	return cs, nil
}

// prefix is the pre-encoded line head of the cell the candidate at
// canonical index i belongs to.
//
//reprolint:hotpath
func (cs *compiledSpace) prefix(i int) []byte {
	c := i / cs.compiled.Sensors()
	return cs.prefixes[cs.offs[c]:cs.offs[c+1]]
}

// spaceTable is a server's bounded table of compiled spaces, evicting
// the least recently used entry past compiledSpaceCap. Lookups compare
// axis lists directly: with at most compiledSpaceCap entries a scan is
// cheaper than building a key string per request.
type spaceTable struct {
	mu sync.Mutex
	// entries is ordered most recently used first.
	entries      []*compiledSpace
	hits, misses atomic.Uint64
}

// get returns the compiled space for sp, compiling it on a miss. The
// compile runs outside the lock: two requests racing on one new
// selection may both compile it, which is harmless because both
// results are identical (the later insert replaces the earlier entry).
// A space that fails to compile is not cached.
func (t *spaceTable) get(cat *catalog.Catalog, sp dse.Space) (*compiledSpace, error) {
	if cs := t.lookup(sp); cs != nil {
		t.hits.Add(1)
		return cs, nil
	}
	t.misses.Add(1)
	cs, err := newCompiledSpace(cat, sp)
	if err != nil {
		return nil, err
	}
	t.insert(cs)
	return cs, nil
}

// lookup finds sp's entry and moves it to the front.
func (t *spaceTable) lookup(sp dse.Space) *compiledSpace {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, cs := range t.entries {
		if sameSpace(cs.key, sp) {
			copy(t.entries[1:i+1], t.entries[:i])
			t.entries[0] = cs
			return cs
		}
	}
	return nil
}

// insert puts cs at the front, dropping an entry with the same key
// (a racing duplicate compile) and the least recently used entry past
// the cap.
func (t *spaceTable) insert(cs *compiledSpace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries = slices.DeleteFunc(t.entries, func(e *compiledSpace) bool { return sameSpace(e.key, cs.key) })
	t.entries = slices.Insert(t.entries, 0, cs)
	if len(t.entries) > compiledSpaceCap {
		t.entries[compiledSpaceCap] = nil
		t.entries = t.entries[:compiledSpaceCap]
	}
}

// len is the number of resident compiled spaces.
func (t *spaceTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// sameSpace reports whether two axis selections are equal, order
// included.
func sameSpace(a, b dse.Space) bool {
	return slices.Equal(a.UAVs, b.UAVs) && slices.Equal(a.Computes, b.Computes) &&
		slices.Equal(a.Algorithms, b.Algorithms) && slices.Equal(a.Sensors, b.Sensors)
}
