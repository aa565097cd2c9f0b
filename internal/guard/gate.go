package guard

// Gate bounds how many operations are in flight at once: Acquire blocks
// while Width operations hold a slot. A nil *Gate is unbounded, so a lookup
// that finds no gate needs no special case.
type Gate struct {
	slots chan struct{}
}

// NewGate returns a gate admitting width operations at a time (at least
// one).
func NewGate(width int) *Gate {
	if width < 1 {
		width = 1
	}
	return &Gate{slots: make(chan struct{}, width)}
}

// Acquire takes one slot, blocking while the gate is full.
func (g *Gate) Acquire() {
	if g != nil {
		g.slots <- struct{}{}
	}
}

// Release returns a slot taken by Acquire.
func (g *Gate) Release() {
	if g != nil {
		<-g.slots
	}
}

// InFlight reports how many slots are held now.
func (g *Gate) InFlight() int {
	if g == nil {
		return 0
	}
	return len(g.slots)
}

// Width reports the gate's bound (zero for a nil gate).
func (g *Gate) Width() int {
	if g == nil {
		return 0
	}
	return cap(g.slots)
}
