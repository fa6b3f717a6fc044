// Package durable writes files that survive a crash: WriteFile replaces
// a file whole or not at all, and a framed log (log.go) keeps every
// append but a torn last line.
package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// Sink is what WriteFile writes a temp file through and AppendFile
// appends to a log through.
type Sink interface {
	io.Writer
	Sync() error
}

// NewSink wraps each temp file WriteFile stages and each log file
// AppendFile appends to. Only tests set it, to a testutil.FaultyWriter
// that tears the write at a chosen byte.
var NewSink = func(f *os.File) Sink { return f }

// WriteFile replaces path with data, mode 0600: it writes a temp file
// in path's directory, fsyncs and closes it, renames it over path and
// fsyncs the directory. On failure it removes the temp file, so path
// keeps its previous bytes or stays absent. Temp names end in ".tmp".
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	w := NewSink(tmp)
	if _, err := w.Write(data); err != nil {
		return errors.Join(err, tmp.Close())
	}
	if err := w.Sync(); err != nil {
		return errors.Join(err, tmp.Close())
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so that a rename or a file creation in it
// survives a crash. EINVAL and ENOTSUP, from filesystems that cannot
// fsync a directory, are not errors.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return errors.Join(err, d.Close())
	}
	return d.Close()
}
