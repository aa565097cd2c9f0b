package policy

import (
	"testing"
	"time"

	"muxfs/internal/device"
)

// threeTiers builds PM/SSD/HDD TierInfos with the given used bytes.
func threeTiers(pmUsed, ssdUsed, hddUsed int64) []TierInfo {
	return []TierInfo{
		{ID: 0, Name: "nova", Class: device.PM, Capacity: 100 << 20, Used: pmUsed,
			ReadLat: 170 * time.Nanosecond, WriteLat: 90 * time.Nanosecond},
		{ID: 1, Name: "xfs", Class: device.SSD, Capacity: 1 << 30, Used: ssdUsed,
			ReadLat: 10 * time.Microsecond, WriteLat: 10 * time.Microsecond},
		{ID: 2, Name: "ext4", Class: device.HDD, Capacity: 8 << 30, Used: hddUsed,
			ReadLat: 5 * time.Millisecond, WriteLat: 5 * time.Millisecond},
	}
}

func TestTierInfoHelpers(t *testing.T) {
	ti := TierInfo{Capacity: 100, Used: 25}
	if ti.Free() != 75 {
		t.Errorf("Free = %d", ti.Free())
	}
	if ti.UsedFrac() != 0.25 {
		t.Errorf("UsedFrac = %v", ti.UsedFrac())
	}
	empty := TierInfo{}
	if empty.UsedFrac() != 1 {
		t.Errorf("zero-capacity UsedFrac = %v, want 1 (treat as full)", empty.UsedFrac())
	}
}

func TestPinned(t *testing.T) {
	p := Pinned{Tier: 2}
	if p.Name() != "pinned" {
		t.Error("name")
	}
	if got := p.PlaceWrite(WriteCtx{N: 1 << 30}, threeTiers(0, 0, 0)); got != 2 {
		t.Errorf("PlaceWrite = %d", got)
	}
	if moves := p.PlanMigrations(threeTiers(1<<30, 0, 0), nil, 0); moves != nil {
		t.Errorf("Pinned planned moves: %v", moves)
	}
}

func TestLRUPlaceWrite(t *testing.T) {
	p := DefaultLRU()
	// Empty hierarchy: fastest tier.
	if got := p.PlaceWrite(WriteCtx{N: 4096}, threeTiers(0, 0, 0)); got != 0 {
		t.Errorf("empty: placed on %d", got)
	}
	// PM nearly full: spill to SSD.
	if got := p.PlaceWrite(WriteCtx{N: 20 << 20}, threeTiers(95<<20, 0, 0)); got != 1 {
		t.Errorf("full PM: placed on %d", got)
	}
	// Everything full past watermark: last tier takes it anyway.
	tiers := threeTiers(100<<20, 1<<30, 8<<30)
	if got := p.PlaceWrite(WriteCtx{N: 4096}, tiers); got != 2 {
		t.Errorf("all full: placed on %d", got)
	}
}

func TestLRUDemotesColdestFirst(t *testing.T) {
	p := &LRU{HighWatermark: 0.5, LowWatermark: 0.3}
	tiers := threeTiers(80<<20, 0, 0) // PM 80% full, need = 80-30 = 50 MiB out
	files := []FileStat{
		{Path: "/hot", Size: 20 << 20, LastAccess: 100 * time.Millisecond, Tiers: []int{0}},
		{Path: "/cold", Size: 60 << 20, LastAccess: 1 * time.Millisecond, Tiers: []int{0}},
	}
	moves := p.PlanMigrations(tiers, files, 200*time.Millisecond)
	if len(moves) == 0 {
		t.Fatal("no demotion planned for over-watermark tier")
	}
	if moves[0].Path != "/cold" || moves[0].SrcTier != 0 || moves[0].DstTier != 1 {
		t.Fatalf("first move = %+v, want /cold PM->SSD", moves[0])
	}
	// The 60 MiB cold file alone reaches the low watermark; the hot file
	// must stay.
	for _, mv := range moves {
		if mv.Path == "/hot" && !mv.Promote {
			t.Fatalf("hot file demoted despite cold candidate covering the need: %+v", moves)
		}
	}
}

func TestLRUPromotesRecentlyAccessed(t *testing.T) {
	p := &LRU{HighWatermark: 0.9, LowWatermark: 0.7, PromoteWindow: time.Millisecond}
	tiers := threeTiers(0, 100<<20, 0)
	now := 10 * time.Millisecond
	files := []FileStat{
		{Path: "/recent", Size: 1 << 20, LastAccess: now - 500*time.Microsecond, Tiers: []int{1}},
		{Path: "/stale", Size: 1 << 20, LastAccess: now - 8*time.Millisecond, Tiers: []int{1}},
	}
	moves := p.PlanMigrations(tiers, files, now)
	var promoted []string
	for _, mv := range moves {
		if mv.Promote {
			promoted = append(promoted, mv.Path)
			if mv.SrcTier != 1 || mv.DstTier != 0 {
				t.Errorf("promotion %+v not SSD->PM", mv)
			}
		}
	}
	if len(promoted) != 1 || promoted[0] != "/recent" {
		t.Fatalf("promoted %v, want only /recent", promoted)
	}
}

func TestLRUPromotionRespectsRoom(t *testing.T) {
	p := &LRU{HighWatermark: 0.9, LowWatermark: 0.7, PromoteWindow: time.Hour}
	tiers := threeTiers(70<<20, 100<<20, 0) // PM already at its low watermark
	files := []FileStat{
		{Path: "/f", Size: 10 << 20, LastAccess: 0, Tiers: []int{1}},
	}
	for _, mv := range p.PlanMigrations(tiers, files, time.Nanosecond) {
		if mv.Promote && mv.DstTier == 0 {
			t.Fatalf("promotion into a full tier: %+v", mv)
		}
	}
}

func TestLRUMirrorPromoteEmitsMirrorMoves(t *testing.T) {
	p := &LRU{HighWatermark: 0.9, LowWatermark: 0.7, PromoteWindow: time.Millisecond, MirrorPromote: true}
	tiers := threeTiers(0, 100<<20, 0)
	now := 10 * time.Millisecond
	files := []FileStat{
		{Path: "/warm", Size: 1 << 20, LastAccess: now - 500*time.Microsecond, Tiers: []int{1}, Replica: -1},
		{Path: "/stale", Size: 1 << 20, LastAccess: now - 8*time.Millisecond, Tiers: []int{1}, Replica: -1},
	}
	moves := p.PlanMigrations(tiers, files, now)
	if len(moves) != 1 {
		t.Fatalf("moves = %+v, want exactly one", moves)
	}
	mv := moves[0]
	if mv.Path != "/warm" || !mv.Mirror || !mv.Promote || mv.SrcTier != 1 || mv.DstTier != 0 {
		t.Fatalf("move = %+v, want /warm mirror-promote SSD->PM", mv)
	}
}

func TestLRUMirrorPromoteSkipsMirroredAndResident(t *testing.T) {
	p := &LRU{HighWatermark: 0.9, LowWatermark: 0.7, PromoteWindow: time.Hour, MirrorPromote: true}
	tiers := threeTiers(0, 100<<20, 0)
	files := []FileStat{
		{Path: "/mirrored", Size: 1 << 20, LastAccess: 0, Tiers: []int{1}, Replica: 0},
		{Path: "/resident", Size: 1 << 20, LastAccess: 0, Tiers: []int{0, 1}, Replica: -1},
	}
	if moves := p.PlanMigrations(tiers, files, time.Nanosecond); len(moves) != 0 {
		t.Fatalf("moves = %+v, want none (already mirrored / already resident)", moves)
	}
}

func TestLRUMirrorPromoteBudgetsMirrorBytes(t *testing.T) {
	// PM primaries sit at the low watermark (70 of 100 MiB); existing mirror
	// bytes must eat the promotion room just like primary bytes do.
	p := &LRU{HighWatermark: 0.9, LowWatermark: 0.7, PromoteWindow: time.Hour, MirrorPromote: true}
	tiers := threeTiers(60<<20, 100<<20, 0)
	files := []FileStat{
		{Path: "/pinned", Size: 10 << 20, LastAccess: 0, Tiers: []int{2}, Replica: 0},
		{Path: "/warm", Size: 10 << 20, LastAccess: 0, Tiers: []int{1}, Replica: -1},
	}
	for _, mv := range p.PlanMigrations(tiers, files, time.Nanosecond) {
		if mv.Promote && mv.DstTier == 0 {
			t.Fatalf("promotion into a tier whose mirror bytes fill it: %+v", mv)
		}
	}
}

func TestLRUMirrorPromoteClearsMirrorsBeforeDemoting(t *testing.T) {
	// PM holds 40 MiB of primaries plus 40 MiB of mirror bytes: over the 50%
	// high watermark only when mirrors are counted. The plan must clear the
	// coldest mirrors first — freeing fast-tier bytes without copying — and
	// not demote any primary once the clears cover the need.
	p := &LRU{HighWatermark: 0.5, LowWatermark: 0.3, MirrorPromote: true}
	tiers := threeTiers(40<<20, 0, 0)
	files := []FileStat{
		{Path: "/prim", Size: 40 << 20, LastAccess: 90 * time.Millisecond, Tiers: []int{0}, Replica: -1},
		{Path: "/mcold", Size: 30 << 20, LastAccess: 1 * time.Millisecond, Tiers: []int{1}, Replica: 0},
		{Path: "/mwarm", Size: 30 << 20, LastAccess: 80 * time.Millisecond, Tiers: []int{1}, Replica: 0},
	}
	moves := p.PlanMigrations(tiers, files, 200*time.Millisecond)
	if len(moves) == 0 {
		t.Fatal("no moves for a tier over-watermark on mirror bytes")
	}
	// need = 40+60 - 30 = 70 MiB: both mirrors clear (coldest first), and
	// the remaining 10 MiB demotes the primary — in that order.
	if !moves[0].Mirror || moves[0].DstTier != -1 || moves[0].Path != "/mcold" {
		t.Fatalf("first move = %+v, want clear of coldest mirror /mcold", moves[0])
	}
	for i, mv := range moves {
		if mv.Mirror && mv.DstTier == -1 && i > 0 && !moves[i-1].Mirror {
			t.Fatalf("mirror clear after a primary demotion: %+v", moves)
		}
		if mv.Mirror && mv.SrcTier != 0 {
			t.Fatalf("mirror clear names tier %d, want the over-full tier 0: %+v", mv.SrcTier, mv)
		}
	}
}

func TestLRUMirrorPromoteOffIsClassic(t *testing.T) {
	// With the knob off, replica marks on the FileStats must not perturb the
	// plan: byte-identical to the classic LRU over the same inputs.
	tiers := threeTiers(80<<20, 100<<20, 0)
	now := 200 * time.Millisecond
	files := []FileStat{
		{Path: "/a", Size: 60 << 20, LastAccess: 1 * time.Millisecond, Tiers: []int{0}, Replica: 1},
		{Path: "/b", Size: 20 << 20, LastAccess: now - 100*time.Microsecond, Tiers: []int{0}, Replica: -1},
		{Path: "/c", Size: 1 << 20, LastAccess: now - 200*time.Microsecond, Tiers: []int{1}, Replica: 0},
	}
	stripped := make([]FileStat, len(files))
	copy(stripped, files)
	for i := range stripped {
		stripped[i].Replica = -1
	}
	p := &LRU{HighWatermark: 0.5, LowWatermark: 0.3, PromoteWindow: time.Millisecond}
	got := p.PlanMigrations(tiers, files, now)
	want := p.PlanMigrations(tiers, stripped, now)
	if len(got) != len(want) {
		t.Fatalf("plans diverge: %+v vs %+v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("move %d diverges: %+v vs %+v", i, got[i], want[i])
		}
	}
	for _, mv := range got {
		if mv.Mirror {
			t.Fatalf("classic plan emitted a mirror move: %+v", mv)
		}
	}
}

func TestTPFSRouting(t *testing.T) {
	p := DefaultTPFS()
	tiers := threeTiers(0, 0, 0)
	if got := p.PlaceWrite(WriteCtx{N: 4 << 10}, tiers); got != 0 {
		t.Errorf("small write placed on %d, want PM", got)
	}
	if got := p.PlaceWrite(WriteCtx{N: 1 << 20}, tiers); got != 1 {
		t.Errorf("medium write placed on %d, want SSD", got)
	}
	if got := p.PlaceWrite(WriteCtx{N: 8 << 20}, tiers); got != 2 {
		t.Errorf("large write placed on %d, want HDD", got)
	}
	// Synchronous writes go fast regardless of size.
	if got := p.PlaceWrite(WriteCtx{N: 8 << 20, Sync: true}, tiers); got != 0 {
		t.Errorf("sync write placed on %d, want PM", got)
	}
	// Single tier: no choice.
	if got := p.PlaceWrite(WriteCtx{N: 1}, tiers[2:]); got != 2 {
		t.Errorf("single-tier placement = %d", got)
	}
}

func TestHotColdClassification(t *testing.T) {
	p := DefaultHotCold()
	tiers := threeTiers(0, 0, 0)
	files := []FileStat{
		{Path: "/hot", Size: 1 << 20, Heat: 10, Tiers: []int{1}},   // promote
		{Path: "/cold", Size: 1 << 20, Heat: 0.1, Tiers: []int{1}}, // demote
		{Path: "/warm", Size: 1 << 20, Heat: 2, Tiers: []int{1}},   // stay
	}
	moves := p.PlanMigrations(tiers, files, 0)
	got := map[string]Move{}
	for _, mv := range moves {
		got[mv.Path] = mv
	}
	if mv, ok := got["/hot"]; !ok || !mv.Promote || mv.DstTier != 0 {
		t.Errorf("hot file move = %+v", got["/hot"])
	}
	if mv, ok := got["/cold"]; !ok || mv.Promote || mv.DstTier != 2 {
		t.Errorf("cold file move = %+v", got["/cold"])
	}
	if _, ok := got["/warm"]; ok {
		t.Errorf("warm file moved: %+v", got["/warm"])
	}
	// Edge tiers do not move off the ends.
	edge := []FileStat{
		{Path: "/top", Size: 1, Heat: 10, Tiers: []int{0}},
		{Path: "/bottom", Size: 1, Heat: 0, Tiers: []int{2}},
	}
	if moves := p.PlanMigrations(tiers, edge, 0); len(moves) != 0 {
		t.Errorf("edge moves: %+v", moves)
	}
}

func TestFuncPolicyDefaults(t *testing.T) {
	var p Func
	if p.Name() != "func" {
		t.Error("default name")
	}
	tiers := threeTiers(0, 0, 0)
	if got := p.PlaceWrite(WriteCtx{}, tiers); got != 0 {
		t.Errorf("nil Place fell to %d, want fastest", got)
	}
	if moves := p.PlanMigrations(tiers, nil, 0); moves != nil {
		t.Error("nil Plan produced moves")
	}
	named := Func{PolicyName: "custom", Place: func(WriteCtx, []TierInfo) int { return 7 }}
	if named.Name() != "custom" || named.PlaceWrite(WriteCtx{}, tiers) != 7 {
		t.Error("custom Func not honored")
	}
}

func TestQuotaPolicyEnforcement(t *testing.T) {
	base := Pinned{Tier: 0}
	p := &QuotaPolicy{
		Base:   base,
		Quotas: []Quota{{Prefix: "/scratch/", Tier: 0, Bytes: 1 << 20}},
	}
	if p.Name() != "pinned+quota[/scratch/:t0:1MiB]" {
		t.Errorf("Name = %q", p.Name())
	}
	tiers := threeTiers(0, 0, 0)
	// Placement still delegates to the base policy.
	if got := p.PlaceWrite(WriteCtx{Path: "/scratch/x", N: 4096}, tiers); got != 0 {
		t.Errorf("PlaceWrite = %d", got)
	}
	files := []FileStat{
		{Path: "/scratch/a", Size: 1 << 20, LastAccess: 5, Tiers: []int{0}, TierBytes: []int64{1 << 20}},
		{Path: "/scratch/b", Size: 1 << 20, LastAccess: 1, Tiers: []int{0}, TierBytes: []int64{1 << 20}},
		{Path: "/keep/c", Size: 4 << 20, LastAccess: 0, Tiers: []int{0}, TierBytes: []int64{4 << 20}},
	}
	moves := p.PlanMigrations(tiers, files, 10)
	var demoted []string
	for _, mv := range moves {
		if mv.SrcTier == 0 && mv.DstTier == 1 {
			demoted = append(demoted, mv.Path)
		}
	}
	// /scratch holds 2 MiB against a 1 MiB quota: demote exactly the
	// coldest 1 MiB (/scratch/b); /keep is outside the prefix.
	if len(demoted) != 1 || demoted[0] != "/scratch/b" {
		t.Fatalf("demoted = %v, want only /scratch/b", demoted)
	}
}

func TestQuotaPolicyUnderBudgetNoMoves(t *testing.T) {
	p := &QuotaPolicy{Base: Pinned{Tier: 0}, Quotas: []Quota{{Prefix: "/", Tier: 0, Bytes: 1 << 30}}}
	files := []FileStat{{Path: "/x", Size: 1 << 20, Tiers: []int{0}, TierBytes: []int64{1 << 20}}}
	if moves := p.PlanMigrations(threeTiers(1<<20, 0, 0), files, 0); len(moves) != 0 {
		t.Fatalf("under-budget moves: %v", moves)
	}
}

func TestQuotaOnSlowestTierIgnored(t *testing.T) {
	// No slower tier exists to demote to; the quota is unenforceable and
	// must not panic or emit moves.
	p := &QuotaPolicy{Base: Pinned{Tier: 2}, Quotas: []Quota{{Prefix: "/", Tier: 2, Bytes: 1}}}
	files := []FileStat{{Path: "/x", Size: 1 << 20, Tiers: []int{2}, TierBytes: []int64{1 << 20}}}
	if moves := p.PlanMigrations(threeTiers(0, 0, 1<<20), files, 0); len(moves) != 0 {
		t.Fatalf("slowest-tier quota moves: %v", moves)
	}
}
