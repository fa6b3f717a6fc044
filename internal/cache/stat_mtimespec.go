//go:build darwin || freebsd || netbsd

package cache

import (
	"syscall"
	"time"
)

// statMtime is an fstat result's modification time. Stat_t spells the
// field Mtimespec here and Mtim on linux, openbsd and dragonfly.
func statMtime(st *syscall.Stat_t) time.Time { return time.Unix(st.Mtimespec.Unix()) }
