// Package atomicdef defines a struct whose Hits field is accessed
// through the legacy sync/atomic package-level functions, seeding one
// local mixed plain access. The atomicuse fixture imports this package
// and reads Hits plainly, so the rule must carry the mark downstream.
package atomicdef

import "sync/atomic"

// Counters is a hot-path counter block in the legacy address-of style.
type Counters struct {
	Hits  int64
	Total int64
}

// Record bumps the counter atomically — this marks Hits.
func (c *Counters) Record() {
	atomic.AddInt64(&c.Hits, 1)
}

// Snapshot reads the counter atomically — fine.
func (c *Counters) Snapshot() int64 {
	return atomic.LoadInt64(&c.Hits)
}

// Mixed reads the marked field without the atomic API.
func (c *Counters) Mixed() int64 {
	return c.Hits // want `atomicfield: field Hits is accessed via sync/atomic elsewhere`
}

// PlainTotal reads a field no one touches atomically — clean.
func (c *Counters) PlainTotal() int64 {
	return c.Total
}
