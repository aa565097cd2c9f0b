package core

import "muxfs/internal/vfs"

// Per-tier write epochs: which tiers the tier barrier (occ.go tierBarrier)
// and Mux.Sync must sync. Every mutating call Mux sends a tier goes
// through tierFS or a handle it opened, which book the call in the tier's
// epoch once it returns, before the caller can buffer a record that
// references it. A failed call counts too: it may have changed the tier
// before it failed. The SCM cache file (cachectl.go) is opened through the
// raw FS and stays unbooked: no record references its blocks.

// tierFS is a tier's FileSystem with the namespace mutations booked and
// every opened handle wrapped in a tierFile.
type tierFS struct {
	vfs.FileSystem
	t *Tier
}

func (w tierFS) Create(path string) (vfs.File, error) {
	h, err := w.FileSystem.Create(path)
	w.t.wrote()
	return w.file(h, err)
}

func (w tierFS) Open(path string) (vfs.File, error) {
	return w.file(w.FileSystem.Open(path))
}

func (w tierFS) file(h vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &tierFile{File: h, t: w.t}, nil
}

func (w tierFS) Mkdir(path string) error {
	err := w.FileSystem.Mkdir(path)
	w.t.wrote()
	return err
}

func (w tierFS) Rename(oldPath, newPath string) error {
	err := w.FileSystem.Rename(oldPath, newPath)
	w.t.wrote()
	return err
}

func (w tierFS) Remove(path string) error {
	err := w.FileSystem.Remove(path)
	w.t.wrote()
	return err
}

func (w tierFS) SetAttr(path string, attr vfs.SetAttr) error {
	err := w.FileSystem.SetAttr(path, attr)
	w.t.wrote()
	return err
}

// tierFile is a downward handle with its data mutations booked.
type tierFile struct {
	vfs.File
	t *Tier
}

func (h *tierFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := h.File.WriteAt(p, off)
	h.t.wrote()
	return n, err
}

func (h *tierFile) Truncate(size int64) error {
	err := h.File.Truncate(size)
	h.t.wrote()
	return err
}

func (h *tierFile) PunchHole(off, n int64) error {
	err := h.File.PunchHole(off, n)
	h.t.wrote()
	return err
}

func (t *Tier) wrote() { t.writes.Add(1) }

// dirty reports whether Mux has sent t a mutating call that no successful
// Sync covers yet.
func (t *Tier) dirty() bool { return t.writes.Load() > t.durable.Load() }

// sync is FS.Sync with the epoch: every call booked before it started is
// durable once it succeeds. durable only grows, so a slower Sync that
// finishes last cannot take back what a later one covered.
func (t *Tier) sync() error {
	w := t.writes.Load()
	if err := t.FS.Sync(); err != nil {
		return err
	}
	for {
		d := t.durable.Load()
		if d >= w || t.durable.CompareAndSwap(d, w) {
			return nil
		}
	}
}
