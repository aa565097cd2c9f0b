package policy

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewFileStatDefaultsReplica(t *testing.T) {
	fs := NewFileStat("/x", 4096)
	if fs.Replica != -1 {
		t.Fatalf("NewFileStat Replica = %d, want -1 (unreplicated)", fs.Replica)
	}
	if fs.Path != "/x" || fs.Size != 4096 {
		t.Fatalf("NewFileStat = %+v", fs)
	}
	// The zero-value footgun the constructor exists for: a hand-built
	// FileStat reads as "mirrored on tier 0".
	var raw FileStat
	if raw.Replica != 0 {
		t.Fatal("zero FileStat.Replica changed; update the NewFileStat docs")
	}
}

func TestLRUParamsEnumerateAndSet(t *testing.T) {
	p := DefaultLRU()
	params := p.Params()
	if len(params) != 3 {
		t.Fatalf("LRU exposes %d params, want 3", len(params))
	}
	byName := map[string]Param{}
	for _, pr := range params {
		byName[pr.Name] = pr
		if pr.Step <= 0 || pr.Min >= pr.Max {
			t.Errorf("param %s has degenerate range/step: %+v", pr.Name, pr)
		}
		if pr.Value < pr.Min || pr.Value > pr.Max {
			t.Errorf("param %s default %v outside [%v, %v]", pr.Name, pr.Value, pr.Min, pr.Max)
		}
	}
	if byName["high_watermark"].Value != 0.9 || byName["low_watermark"].Value != 0.7 {
		t.Fatalf("default watermarks via Params: %+v", byName)
	}

	if err := p.SetParam("high_watermark", 0.8); err != nil {
		t.Fatal(err)
	}
	if got := p.highWM(); got != 0.8 {
		t.Fatalf("highWM after SetParam = %v", got)
	}
	// Struct field is untouched — it stays the initial config.
	if p.HighWatermark != 0.9 {
		t.Fatalf("SetParam mutated the struct field: %v", p.HighWatermark)
	}

	// Clamping: a wedging value is pulled into the safe range, not applied.
	if err := p.SetParam("high_watermark", 0.0); err != nil {
		t.Fatal(err)
	}
	if got := p.highWM(); got != lruHighMin {
		t.Fatalf("clamped highWM = %v, want %v", got, lruHighMin)
	}
	if err := p.SetParam("promote_window_ns", float64(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if got := p.promoteWin(); got != time.Duration(lruWinMax) {
		t.Fatalf("clamped promote window = %v", got)
	}

	if err := p.SetParam("nope", 1); !errors.Is(err, ErrUnknownParam) {
		t.Fatalf("unknown param error = %v", err)
	}
}

func TestLRULowWatermarkNeverExceedsHigh(t *testing.T) {
	p := DefaultLRU()
	if err := p.SetParam("low_watermark", 0.95); err != nil {
		t.Fatal(err)
	}
	if err := p.SetParam("high_watermark", 0.6); err != nil {
		t.Fatal(err)
	}
	if low, high := p.lowWM(), p.highWM(); low > high-0.02+1e-9 {
		t.Fatalf("low %v not held below high %v", low, high)
	}
}

// checkParamsStayInRange holds p to the rule that no sequence of SetParam
// calls — extremes included — may make Params report a value outside its
// own [Min, Max]. It sweeps every knob from one Step below its Min to one
// Step above its Max and checks all knobs after each set. Two breaches it
// caught: LRU's lowWM crossing correction pushed low_watermark to 0.28
// with high_watermark at its floor, and a quota configured under the
// 1 MiB clamp floor reported a cap below its own Min.
func checkParamsStayInRange(t *testing.T, p Tunable) {
	t.Helper()
	params := p.Params()
	for i := 0; i < 1000; i++ {
		pr := params[i%len(params)]
		v := pr.Min - pr.Step + float64(i*7%23)/22*(pr.Max-pr.Min+2*pr.Step)
		if err := p.SetParam(pr.Name, v); err != nil {
			t.Fatal(err)
		}
		for _, got := range p.Params() {
			if got.Value < got.Min || got.Value > got.Max {
				t.Fatalf("after %s=%v: %s = %v outside [%v, %v]", pr.Name, v, got.Name, got.Value, got.Min, got.Max)
			}
		}
	}
}

func TestLRUParamsStayInRange(t *testing.T) { checkParamsStayInRange(t, DefaultLRU()) }

func TestTPFSParamsStayInRange(t *testing.T) { checkParamsStayInRange(t, DefaultTPFS()) }

func TestHotColdParamsStayInRange(t *testing.T) { checkParamsStayInRange(t, DefaultHotCold()) }

// The quota policy's knobs are its base policy's plus one byte cap per
// quota.
func TestQuotaParamsStayInRange(t *testing.T) {
	checkParamsStayInRange(t, &QuotaPolicy{Base: DefaultLRU(), Quotas: []Quota{
		{Prefix: "/a", Tier: 0, Bytes: 64 << 20},
		{Prefix: "/b", Tier: 1, Bytes: 512 << 10}, // below the 1 MiB clamp floor
	}})
}

func TestTPFSAndHotColdTunable(t *testing.T) {
	tp := DefaultTPFS()
	if err := tp.SetParam("small_threshold_bytes", float64(128<<10)); err != nil {
		t.Fatal(err)
	}
	tiers := threeTiers(0, 0, 0)
	// A 100 KiB async write is now "small": it must land on the fastest tier.
	if got := tp.PlaceWrite(WriteCtx{Path: "/x", N: 100 << 10}, tiers); got != 0 {
		t.Fatalf("tuned small write placed on %d", got)
	}

	hc := DefaultHotCold()
	if err := hc.SetParam("hot_heat", 1.0); err != nil {
		t.Fatal(err)
	}
	files := []FileStat{{Path: "/f", Size: 4096, Heat: 2, Tiers: []int{1}, TierBytes: []int64{4096}, Replica: -1}}
	moves := hc.PlanMigrations(tiers, files, 0)
	if len(moves) != 1 || !moves[0].Promote {
		t.Fatalf("tuned hot_heat did not promote: %v", moves)
	}
}

func TestSetParamConcurrentWithPlanning(t *testing.T) {
	// SetParam races PlaceWrite/PlanMigrations by contract; run them
	// together so `go test -race ./internal/policy` proves the atomics.
	p := DefaultLRU()
	tiers := threeTiers(900, 0, 0)
	files := []FileStat{{Path: "/a", Size: 512, LastAccess: 1, Tiers: []int{0}, TierBytes: []int64{512}, Replica: -1}}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = p.SetParam("high_watermark", 0.5+float64(i%40)/100)
			_ = p.SetParam("low_watermark", 0.4+float64(i%30)/100)
			_ = p.SetParam("promote_window_ns", float64(time.Millisecond))
		}
	}()
	for i := 0; i < 2000; i++ {
		_ = p.PlaceWrite(WriteCtx{Path: "/a", N: 64}, tiers)
		_ = p.PlanMigrations(tiers, files, time.Duration(i))
	}
	close(stop)
	wg.Wait()
}

func TestQuotaPolicyNameRendersConfig(t *testing.T) {
	p := &QuotaPolicy{Base: DefaultLRU(), Quotas: []Quota{
		{Prefix: "/a/", Tier: 0, Bytes: 64 << 20},
		{Prefix: "/b/", Tier: 1, Bytes: 2 << 30},
	}}
	want := "lru+quota[/a/:t0:64MiB,/b/:t1:2GiB]"
	if got := p.Name(); got != want {
		t.Fatalf("Name = %q, want %q", got, want)
	}
	// Tuning a cap shows up in the rendered name (the live table).
	if err := p.SetParam("quota_bytes:/a/:t0", float64(32<<20)); err != nil {
		t.Fatal(err)
	}
	if got := p.Name(); !strings.Contains(got, "/a/:t0:32MiB") {
		t.Fatalf("tuned Name = %q", got)
	}
}

func TestQuotaPolicyTunableComposition(t *testing.T) {
	p := &QuotaPolicy{Base: DefaultLRU(), Quotas: []Quota{{Prefix: "/t/", Tier: 0, Bytes: 8 << 20}}}
	params := p.Params()
	// Base knobs plus the quota cap.
	if len(params) != 4 {
		t.Fatalf("composed params = %d, want 4", len(params))
	}
	name := quotaParamName(p.Quotas[0])
	if err := p.SetParam(name, float64(4<<20)); err != nil {
		t.Fatal(err)
	}
	if got := p.quotas()[0].Bytes; got != 4<<20 {
		t.Fatalf("tuned quota = %d", got)
	}
	// The exported config is untouched (clamp anchor).
	if p.Quotas[0].Bytes != 8<<20 {
		t.Fatalf("SetParam mutated Quotas: %d", p.Quotas[0].Bytes)
	}
	// Clamp floor: a cap of zero would demote the whole tenant; it clamps
	// to the 1/8× floor (1 MiB here).
	if err := p.SetParam(name, 0); err != nil {
		t.Fatal(err)
	}
	if got := p.quotas()[0].Bytes; got != 1<<20 {
		t.Fatalf("clamped quota = %d, want 1MiB floor", got)
	}
	// Base-policy knobs forward through the composite.
	if err := p.SetParam("high_watermark", 0.85); err != nil {
		t.Fatal(err)
	}
	if got := p.Base.(*LRU).highWM(); got != 0.85 {
		t.Fatalf("forwarded base knob = %v", got)
	}
	if err := p.SetParam("bogus", 1); !errors.Is(err, ErrUnknownParam) {
		t.Fatalf("unknown composed param error = %v", err)
	}
}

func TestQuotaDemotionSkipsStripeTier(t *testing.T) {
	// Tier layout: PM(0), stripe(1), HDD(2). The over-quota prefix on PM
	// must demote past the stripe set to the plain HDD tier.
	tiers := threeTiers(0, 0, 0)
	tiers[1].Stripe = true
	p := &QuotaPolicy{Base: Pinned{Tier: 0}, Quotas: []Quota{{Prefix: "/t/", Tier: 0, Bytes: 1 << 20}}}
	files := []FileStat{
		{Path: "/t/a", Size: 2 << 20, LastAccess: 1, Tiers: []int{0}, TierBytes: []int64{2 << 20}, Replica: -1},
	}
	moves := p.PlanMigrations(tiers, files, 10)
	if len(moves) != 1 {
		t.Fatalf("moves = %v", moves)
	}
	if moves[0].DstTier != 2 {
		t.Fatalf("quota demotion targeted tier %d, want plain tier 2 (skip stripe)", moves[0].DstTier)
	}
	if !moves[0].Quota {
		t.Fatal("quota demotion not flagged Move.Quota")
	}

	// Only stripe tiers below: the quota is unenforceable, no moves.
	tiers[2].Stripe = true
	if moves := p.PlanMigrations(tiers, files, 10); len(moves) != 0 {
		t.Fatalf("stripe-only demotion target produced moves: %v", moves)
	}
}
