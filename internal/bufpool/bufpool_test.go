package bufpool

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func TestGetSizes(t *testing.T) {
	for _, c := range []struct{ n, cap int }{
		{1, MinSize},
		{MinSize, MinSize},
		{MinSize + 1, 2 * MinSize},
		{100 << 10, 128 << 10},
		{8 << 20, 8 << 20},
		{8<<20 + 1, 8<<20 + 1}, // past the largest class: exact, unpooled
	} {
		p := Get(c.n)
		if len(*p) != c.n || cap(*p) != c.cap {
			t.Errorf("Get(%d): len %d cap %d, want len %d cap %d", c.n, len(*p), cap(*p), c.n, c.cap)
		}
		Put(p)
	}
}

// A buffer whose capacity is not a class size is never pooled, so Get
// never hands out a buffer shorter than its class.
func TestPutDropsForeignBuffers(t *testing.T) {
	b := make([]byte, 3000)
	Put(&b)
	for i := 0; i < 64; i++ {
		if p := Get(4096); cap(*p) != 4096 {
			t.Fatalf("Get(4096) returned capacity %d", cap(*p))
		}
	}
}

// Under parallel Get/fill/Put no two holders ever share a backing array:
// each holder's fill survives until it puts the buffer back, and no
// backing array is handed out twice at once.
func TestBufpoolConcurrent(t *testing.T) {
	const (
		workers = 8
		rounds  = 500
	)
	var mu sync.Mutex
	inUse := make(map[*byte]bool)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			mark := byte(w + 1)
			for r := 0; r < rounds; r++ {
				p := Get(1 + rng.Intn(8<<10))
				base := &(*p)[:cap(*p)][0]
				mu.Lock()
				shared := inUse[base]
				inUse[base] = true
				mu.Unlock()
				if shared {
					t.Errorf("worker %d: Get returned a backing array another holder has", w)
					return
				}
				b := *p
				for i := range b {
					b[i] = mark
				}
				runtime.Gosched() // let other holders run while this one holds b
				for i := range b {
					if b[i] != mark {
						t.Errorf("worker %d: byte %d of its buffer changed under it", w, i)
						return
					}
				}
				mu.Lock()
				delete(inUse, base)
				mu.Unlock()
				Put(p)
			}
		}(w)
	}
	wg.Wait()
}

// A buffer put back outlives GC cycles, which empty a sync.Pool: the next
// Get of its size returns it and allocates nothing.
func TestBufpoolSurvivesGC(t *testing.T) {
	const n = 64 << 10
	p := Get(n)
	Put(p)
	runtime.GC()
	runtime.GC()
	if q := Get(n); q != p {
		t.Fatal("Get after two GC cycles did not return the buffer put back")
	} else {
		Put(q)
	}
	if a := testing.AllocsPerRun(100, func() { Put(Get(n)) }); a != 0 {
		t.Fatalf("Get+Put of a pooled size: %.1f allocations, want 0", a)
	}
}

// A class keeps at most its cap of free buffers; the rest go to the GC.
func TestBufpoolClassCap(t *testing.T) {
	const n = 1 << 20
	c := class(n)
	limit := classCap(c)
	if limit*n > maxFreeBytes {
		t.Fatalf("class %d keeps %d buffers of %d B, past %d B", c, limit, n, maxFreeBytes)
	}
	held := make([]*[]byte, limit+4)
	for i := range held {
		held[i] = Get(n)
	}
	for _, p := range held {
		Put(p)
	}
	fl := &classes[c]
	fl.mu.Lock()
	kept := len(fl.bufs)
	fl.mu.Unlock()
	if kept != limit {
		t.Fatalf("free list holds %d buffers after %d puts, want its cap %d", kept, len(held), limit)
	}
	if got := classCap(class(8 << 20)); got != 1 {
		t.Fatalf("the 8 MiB class keeps %d free buffers, want 1", got)
	}
}
