// Package atomicup defines a counter and reads it plainly. The only
// atomic access to N sits in the importing atomicdown fixture, so this
// plain read is flagged only when the rule sees the whole run, not just
// this package and what it imports.
package atomicup

// Counter is a legacy address-of style counter.
type Counter struct {
	N int64
}

// Get reads N without the atomic API while atomicdown bumps it
// atomically.
func (c *Counter) Get() int64 {
	return c.N // want `atomicfield: field N is accessed via sync/atomic elsewhere`
}
