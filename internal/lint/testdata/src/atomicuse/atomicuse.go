// Package atomicuse imports atomicdef and accesses its atomically
// marked field without the atomic API: the violation is only visible
// through the atomic accesses in atomicdef, so this fixture pins the
// downstream half of the whole-run check.
package atomicuse

import "nwdec/internal/atomicdef"

// Leak reads the marked field plainly from a downstream package.
func Leak(c *atomicdef.Counters) int64 {
	return c.Hits // want `atomicfield: field Hits is accessed via sync/atomic elsewhere`
}

// Sum reads the unmarked field — clean across packages too.
func Sum(c *atomicdef.Counters) int64 {
	return c.Total
}
