// Package atomicdown imports atomicup and is the only place that
// accesses its N field through sync/atomic. It has no violation of its
// own; it makes the plain read upstream in atomicup a race.
package atomicdown

import (
	"sync/atomic"

	"nwdec/internal/atomicup"
)

// Bump increments the upstream counter atomically.
func Bump(c *atomicup.Counter) {
	atomic.AddInt64(&c.N, 1)
}
