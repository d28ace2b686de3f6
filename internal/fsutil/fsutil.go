// Package fsutil provides the crash-safe file primitives the daemon's
// checkpointer builds on: atomic generational writes that never leave a
// torn file where a reader can find it. A write either lands completely
// (tmp file + fsync + rename) or not at all, and the previous generation
// of the file is kept, so a reader always has a good copy to fall back to
// even when the current one was corrupted after the fact.
package fsutil

import (
	"io"
	"os"
	"path/filepath"
)

// PrevSuffix is appended to path to name the previous generation kept by
// WriteAtomic.
const PrevSuffix = ".prev"

// tmpSuffix names the in-progress temporary file. A crash mid-write can
// leave it behind; it is truncated and reused by the next write and never
// read back.
const tmpSuffix = ".tmp"

// WriteAtomic atomically replaces path with the bytes produced by write,
// returning the number of bytes written. The protocol is:
//
//  1. write everything to path.tmp and fsync it;
//  2. rotate the existing path (if any) to path.prev;
//  3. rename path.tmp to path;
//  4. fsync the directory so both renames are durable.
//
// If write (or the fsync) fails, the temporary file is removed and the
// current generation at path is left untouched — a torn write can never
// clobber the last good copy. A crash between steps 2 and 3 leaves no
// current file but a good path.prev, which is why readers must fall back
// to the previous generation (as the server's checkpoint restore does).
func WriteAtomic(path string, write func(io.Writer) error) (int64, error) {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: f}
	if err := write(cw); err != nil {
		f.Close()
		os.Remove(tmp)
		return cw.n, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return cw.n, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return cw.n, err
	}
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, path+PrevSuffix); err != nil {
			os.Remove(tmp)
			return cw.n, err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		return cw.n, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		// The data itself is durable (the file was fsynced); only the
		// renames could be lost on power failure. Report it.
		return cw.n, err
	}
	return cw.n, nil
}

// syncDir fsyncs a directory so renames inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
