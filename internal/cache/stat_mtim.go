//go:build linux || openbsd || dragonfly

package cache

import (
	"syscall"
	"time"
)

// statMtime is an fstat result's modification time. Stat_t spells the
// field Mtim here and Mtimespec on darwin, freebsd and netbsd.
func statMtime(st *syscall.Stat_t) time.Time { return time.Unix(st.Mtim.Unix()) }
