package fsbase

// Compact writes a compaction snapshot now, as a full journal would.
func (fs *FS) Compact() error {
	fs.Mu.Lock()
	defer fs.Mu.Unlock()
	return fs.compact(nil)
}
