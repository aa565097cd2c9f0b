package main

// Op streams and the shadow model. A generator owns a seeded PRNG and the
// expected state of every file its client touches: it decides each op
// from its own state alone, never from the program's replies, so a seed
// fixes the whole stream. Every written 4 KiB block carries a
// (file, block, version) tag, so each byte read back can be checked.

import (
	"encoding/binary"
	"math/rand"
)

const blockSize = 4096

type opType uint8

const (
	opRead opType = iota
	opWrite
	opStat
)

// op is one client request on one of the client's data files. off and n
// are block-aligned.
type op struct {
	typ  opType
	file int32
	off  int64
	n    int64
	sync bool // fsync the file after the write
}

// fileModel is the expected content of one data file: the version of
// every block (0 = never written, reads as zeros) and the logical size.
type fileModel struct {
	path string
	ver  []uint32
	size int64
}

// model is one client's expected state.
type model struct {
	id    int // global index of the client's first file, for tags
	files []*fileModel
}

// liveBytes is the logical data the model holds: written blocks only.
func (m *model) liveBytes() int64 {
	var n int64
	for _, f := range m.files {
		for _, v := range f.ver {
			if v != 0 {
				n += blockSize
			}
		}
	}
	return n
}

// fillBlock writes the tagged pattern of (file, block, version) into b
// (len blockSize). Version 0 is the never-written block: zeros.
func fillBlock(b []byte, file, block int, ver uint32) {
	if ver == 0 {
		clear(b)
		return
	}
	w := tagWord(file, block, ver)
	for i := 0; i < blockSize; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], w+uint64(i))
	}
}

// checkBlock reports whether b holds exactly the pattern of (file, block,
// version).
func checkBlock(b []byte, file, block int, ver uint32) bool {
	if ver == 0 {
		for _, c := range b {
			if c != 0 {
				return false
			}
		}
		return true
	}
	w := tagWord(file, block, ver)
	for i := 0; i < blockSize; i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != w+uint64(i) {
			return false
		}
	}
	return true
}

func tagWord(file, block int, ver uint32) uint64 {
	x := uint64(file)<<40 ^ uint64(block)<<20 ^ uint64(ver)
	// splitmix64 finalizer: distinct tags give unrelated words.
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31 | 1
}

// mix is the op mix of a generator as cumulative shares: reads below
// read, writes below write, stats above.
type mix struct{ read, write float64 }

// generator produces one client's op stream.
type generator interface {
	next() op
}

// seedFor derives a client's stream seed from the run seed.
func seedFor(seed int64, client int) int64 {
	return seed*1_000_003 + int64(client)*7919 + 1
}

// bumpRange advances the version of every block a write covers.
func bumpRange(f *fileModel, off, n int64) {
	for b := off / blockSize; b < (off+n)/blockSize; b++ {
		f.ver[b]++
	}
	if off+n > f.size {
		f.size = off + n
	}
}

// fsyncEvery: every fsyncEvery-th write of a client is followed by an
// fsync of that file.
const fsyncEvery = 64

// policyEvery is the op count, summed over clients, between inline policy
// rounds.
const policyEvery = 2000

// write finishes a write op: fsync cadence and the model update.
func write(m *model, writes *int, o op) op {
	o.typ = opWrite
	*writes++
	o.sync = *writes%fsyncEvery == 0
	bumpRange(m.files[o.file], o.off, o.n)
	return o
}

// hotGen is the hot-local shape: zipf(1.1) 4 KiB reads and overwrites
// over a hot set of whole files, plus stats.
type hotGen struct {
	r      *rand.Rand
	m      *model
	mx     mix
	zipf   *rand.Zipf
	perm   []int32 // zipf rank -> block number across the client's files
	blocks int     // blocks per file
	writes int
}

func newHotGen(seed int64, m *model, mx mix) *hotGen {
	r := rand.New(rand.NewSource(seed))
	blocks := len(m.files[0].ver)
	total := len(m.files) * blocks
	perm := make([]int32, total)
	for i, p := range r.Perm(total) {
		perm[i] = int32(p)
	}
	return &hotGen{r: r, m: m, mx: mx, perm: perm, blocks: blocks,
		zipf: rand.NewZipf(r, 1.1, 1, uint64(total-1))}
}

func (g *hotGen) next() op {
	x := g.r.Float64()
	if x >= g.mx.write {
		return op{typ: opStat, file: int32(g.r.Intn(len(g.m.files)))}
	}
	b := int(g.perm[g.zipf.Uint64()])
	o := op{file: int32(b / g.blocks), off: int64(b%g.blocks) * blockSize, n: blockSize}
	if x < g.mx.read {
		o.typ = opRead
		return o
	}
	return write(g.m, &g.writes, o)
}

// churnGen is the recency-churn ingest shape: writes append 4 KiB blocks
// sequentially through the namespace, file by file, wrapping at the end;
// reads and stats land uniformly in the recent newest fully-written
// files.
type churnGen struct {
	r      *rand.Rand
	m      *model
	mx     mix
	blocks int
	head   int // next block slot across the namespace; grows without bound
	recent int
	writes int
}

func newChurnGen(seed int64, m *model, mx mix, head, recent int) *churnGen {
	return &churnGen{r: rand.New(rand.NewSource(seed)), m: m, mx: mx,
		blocks: len(m.files[0].ver), head: head, recent: recent}
}

func (g *churnGen) next() op {
	x := g.r.Float64()
	nf := len(g.m.files)
	full := g.head / g.blocks
	if x < g.mx.write && x >= g.mx.read {
		h := g.head
		g.head++
		o := op{file: int32((h / g.blocks) % nf), off: int64(h%g.blocks) * blockSize, n: blockSize}
		return write(g.m, &g.writes, o)
	}
	f := int32((full - 1 - g.r.Intn(min(g.recent, full))) % nf)
	if x >= g.mx.write {
		return op{typ: opStat, file: f}
	}
	return op{typ: opRead, file: f, off: int64(g.r.Intn(g.blocks)) * blockSize, n: blockSize}
}

// coldGen is the stripe-cold shape: sequential 64 KiB–1 MiB reads and
// writes from two independent stream cursors, random 4 KiB overwrites
// (the stripe tier's delta-parity path), and stats.
type coldGen struct {
	r      *rand.Rand
	m      *model
	mx     mix
	small  float64 // share of ops that are 4 KiB overwrites, taken after reads
	blocks int
	rd, wr int // stream cursors in blocks across the cold set
	writes int
}

// coldRunBlocks are the sequential run lengths: 64 KiB to 1 MiB.
var coldRunBlocks = []int{16, 32, 64, 128, 256}

func newColdGen(seed int64, m *model, mx mix, small float64) *coldGen {
	return &coldGen{r: rand.New(rand.NewSource(seed)), m: m, mx: mx, small: small,
		blocks: len(m.files[0].ver)}
}

// stream takes the next run from a cursor: a random length, clipped at
// the end of the current file.
func (g *coldGen) stream(cur *int) op {
	c := *cur % (len(g.m.files) * g.blocks)
	f, b := c/g.blocks, c%g.blocks
	n := min(coldRunBlocks[g.r.Intn(len(coldRunBlocks))], g.blocks-b)
	*cur = c + n
	return op{file: int32(f), off: int64(b) * blockSize, n: int64(n) * blockSize}
}

func (g *coldGen) next() op {
	x := g.r.Float64()
	switch {
	case x >= g.mx.write:
		return op{typ: opStat, file: int32(g.r.Intn(len(g.m.files)))}
	case x < g.mx.read:
		o := g.stream(&g.rd)
		o.typ = opRead
		return o
	case x < g.mx.read+g.small:
		o := op{file: int32(g.r.Intn(len(g.m.files))), off: int64(g.r.Intn(g.blocks)) * blockSize, n: blockSize}
		return write(g.m, &g.writes, o)
	}
	return write(g.m, &g.writes, g.stream(&g.wr))
}
