// Package atomicmix (fixture) exercises the atomicmix analyzer: every
// package-level sync/atomic function is reported, whatever its operand
// — a plain value handed to one can also be loaded or stored plainly,
// and the plain access races with the atomic one. The typed atomics'
// methods are the allowed form.
package atomicmix

import "sync/atomic"

// counter is the mixing shape the analyzer exists for: hits is updated
// atomically and read and cleared plainly. Both atomic calls are
// reported; the plain accesses need no finding of their own once the
// atomic side is gone.
type counter struct {
	hits   int64
	misses int64
}

func (c *counter) hit() {
	atomic.AddInt64(&c.hits, 1) // want `atomic\.AddInt64 leaves its operand open to plain loads and stores`
}

func (c *counter) readAtomic() int64 {
	return atomic.LoadInt64(&c.hits) // want `atomic\.LoadInt64`
}

func (c *counter) read() int64 {
	return c.hits
}

func (c *counter) clear() {
	c.hits = 0
}

// misses is only ever accessed plainly — no atomics, no finding.
func (c *counter) miss() {
	c.misses++
}

// A package variable and a local are operands like any other.
var generation uint32

func bump() uint32 {
	return atomic.AddUint32(&generation, 1) // want `atomic\.AddUint32`
}

func local() bool {
	var flag int32
	return atomic.CompareAndSwapInt32(&flag, 0, 1) // want `atomic\.CompareAndSwapInt32`
}

// Taking the function as a value is reported like calling it.
var store = atomic.StoreInt64 // want `atomic\.StoreInt64`

// typed keeps its values in typed atomics: no plain load or store
// exists, so none of these method calls is reported.
type typed struct {
	hits atomic.Int64
	cur  atomic.Pointer[counter]
	on   atomic.Bool
}

func (t *typed) use(c *counter) int64 {
	t.hits.Add(1)
	t.cur.Store(c)
	t.on.CompareAndSwap(false, true)
	if t.cur.Load() == nil {
		return 0
	}
	return t.hits.Load()
}

type gauge struct {
	val uint32
}

func (g *gauge) set(v uint32) {
	atomic.StoreUint32(&g.val, v) //prvmlint:allow atomicmix — every reader holds the registry mutex, fixture
}
