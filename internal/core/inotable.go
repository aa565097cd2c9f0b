package core

import "sync"

// inoShards shards the ino → muxFile map the same way the namespace is
// sharded, so create/unlink churn on distinct files never contends.
const inoShards = 16

type inoShard struct {
	mu sync.RWMutex
	m  map[uint64]*muxFile
}

// inoTable maps inode numbers to their muxFile state (journal replay and
// whole-set snapshots: policy rounds, fsck, BLT stats, replica repair).
type inoTable struct {
	shard [inoShards]inoShard
}

func newInoTable() *inoTable {
	t := &inoTable{}
	for i := range t.shard {
		t.shard[i].m = map[uint64]*muxFile{}
	}
	return t
}

func (t *inoTable) get(ino uint64) *muxFile {
	s := &t.shard[ino%inoShards]
	s.mu.RLock()
	f := s.m[ino]
	s.mu.RUnlock()
	return f
}

func (t *inoTable) put(ino uint64, f *muxFile) {
	s := &t.shard[ino%inoShards]
	s.mu.Lock()
	s.m[ino] = f
	s.mu.Unlock()
}

func (t *inoTable) del(ino uint64) {
	s := &t.shard[ino%inoShards]
	s.mu.Lock()
	delete(s.m, ino)
	s.mu.Unlock()
}

// snapshot returns the current file set (unordered).
func (t *inoTable) snapshot() []*muxFile { return t.appendTo(make([]*muxFile, 0, 64)) }

// appendTo appends the current file set (unordered) to out.
func (t *inoTable) appendTo(out []*muxFile) []*muxFile {
	for i := range t.shard {
		s := &t.shard[i]
		s.mu.RLock()
		for _, f := range s.m {
			out = append(out, f)
		}
		s.mu.RUnlock()
	}
	return out
}
