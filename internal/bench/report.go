package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Format prints the Figure 3a matrices in the paper's layout.
func (r *E1Result) Format(w io.Writer) {
	fmt.Fprintln(w, "E1 / Figure 3a — data migration throughput matrix (MB/s); N/S = not supported")
	for _, sys := range []struct {
		name string
		m    *[3][3]E1Cell
	}{{"Strata", &r.Strata}, {"Mux (NOVA, xfs, ext4)", &r.Mux}} {
		fmt.Fprintf(w, "\n  %s — source ↓ / target →\n", sys.name)
		fmt.Fprintf(w, "      %10s %10s %10s\n", TierName[0], TierName[1], TierName[2])
		for src := 0; src < 3; src++ {
			cells := make([]string, 3)
			for dst := 0; dst < 3; dst++ {
				switch {
				case src == dst:
					cells[dst] = "-"
				case !sys.m[src][dst].Supported:
					cells[dst] = "N/S"
				default:
					cells[dst] = fmt.Sprintf("%.0f", sys.m[src][dst].MBps)
				}
			}
			fmt.Fprintf(w, "  %3s %10s %10s %10s\n", TierName[src], cells[0], cells[1], cells[2])
		}
	}
	fmt.Fprintf(w, "\n  Mux PM→SSD speedup over Strata: %.2fx (paper: 2.59x)\n", r.SpeedupPMtoSSD)
}

// Format prints the Figure 3b series.
func (r *E2Result) Format(w io.Writer) {
	fmt.Fprintln(w, "E2 / Figure 3b — device I/O throughput, random 4 KiB writes pinned per device (MB/s)")
	fmt.Fprintf(w, "  %-6s %12s %12s %10s %s\n", "Device", "Strata", "Mux", "Mux/Strata", "(paper ratio)")
	paper := []string{"1.08x", "1.46x", "1.07x"}
	for i, row := range r.Rows {
		fmt.Fprintf(w, "  %-6s %12.1f %12.1f %9.2fx %s\n",
			row.Device, row.StrataMBps, row.MuxMBps, row.Speedup, "("+paper[i]+")")
	}
}

// Format prints the §3.2 read-latency table.
func (r *E3Result) Format(w io.Writer) {
	fmt.Fprintln(w, "E3 / §3.2 — worst-case read latency: random 1-byte reads, native FS vs Mux (ns/read)")
	fmt.Fprintf(w, "  %-6s %12s %12s %12s %s\n", "Device", "Native", "Mux", "Overhead", "(paper)")
	paper := []string{"+52.4%", "+87.3%", "+6.6%"}
	for i, row := range r.Rows {
		fmt.Fprintf(w, "  %-6s %12.0f %12.0f %+11.1f%% %s\n",
			row.Device, row.NativeNs, row.MuxNs, row.OverheadPct, "("+paper[i]+")")
	}
}

// Format prints the §3.2 write-throughput table.
func (r *E4Result) Format(w io.Writer) {
	fmt.Fprintln(w, "E4 / §3.2 — sequential 4 MiB write throughput, native FS vs Mux (MB/s)")
	fmt.Fprintf(w, "  %-6s %12s %12s %12s %s\n", "Device", "Native", "Mux", "Overhead", "(paper)")
	paper := []string{"-1.6%", "-2.2%", "-3.5%"}
	for i, row := range r.Rows {
		fmt.Fprintf(w, "  %-6s %12.1f %12.1f %+11.1f%% %s\n",
			row.Device, row.NativeMBps, row.MuxMBps, -row.OverheadPct, "("+paper[i]+")")
	}
}

// Format prints the migration-engine throughput comparison.
func (r *E5Result) Format(w io.Writer) {
	fmt.Fprintln(w, "E5 — parallel migration engine: one rotate-all round, 18 files x 2 MiB across 3 tiers")
	fmt.Fprintln(w, "  (wall time under per-device service-time governors; virtual time is work, not speed)")
	fmt.Fprintf(w, "  %-8s %12s %12s %10s %12s\n", "Workers", "Wall ms", "Virtual ms", "Moves", "Speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-8d %12.1f %12.1f %10d %11.2fx\n",
			row.Workers, row.WallMs, row.VirtualMs, row.Executed, row.Speedup)
	}
	det := "identical placement at every worker count"
	if !r.Deterministic {
		det = "PLACEMENT DIVERGED — nondeterministic engine"
	}
	fmt.Fprintf(w, "  determinism: %s\n", det)
}

// Format prints the tier fault-drill report.
func (r *E6Result) Format(w io.Writer) {
	fmt.Fprintf(w, "E6 — tier fault drill (seed %d): PM faults injected under a replicated working set\n", r.Seed)
	fmt.Fprintf(w, "  workload: %d reads + %d writes per drill (12 PM files w/ HDD replicas, 8 SSD files w/ PM replicas)\n",
		r.ReadOps, r.WriteOps)
	fmt.Fprintf(w, "  phase A (~1%% transient faults): %d device faults, %d absorbed by retry, %d user-visible errors\n",
		r.TransientFaults, r.TransientRetries, r.TransientUserErrs)
	fmt.Fprintf(w, "  phase B (sticky outage):        %d user-visible errors; quarantined=%v migrate-refused=%v degraded-mirrors=%d\n",
		r.OutageUserErrs, r.Quarantined, r.MigrateRefused, r.DegradedReplicas)
	fmt.Fprintf(w, "  phase C (recovery):             %d replicas repaired; healthy-after=%v failback-from-ssd=%v\n",
		r.Repaired, r.HealthyAfter, r.FailbackOK)
	fmt.Fprintf(w, "  unreplicated baseline:          %d of %d ops failed during the same outage\n",
		r.PlainUserErrs, r.PlainOps)
	det := "all counters identical across seeded reruns"
	if !r.Deterministic {
		det = "COUNTERS DIVERGED — nondeterministic drill"
	}
	fmt.Fprintf(w, "  determinism: %s\n", det)
}

// Format prints the data-path fan-out comparison.
func (r *E7Result) Format(w io.Writer) {
	fmt.Fprintln(w, "E7 — data-path fan-out: full-file reads/writes/fsyncs, 6 files x 3 MiB striped across 3 tiers")
	fmt.Fprintln(w, "  (wall time under per-device service-time governors; serial dispatch pays the sum of tiers, fan-out the max)")
	fmt.Fprintf(w, "  %-8s %12s %12s %12s %10s %10s %10s\n",
		"Width", "Read ms", "Write ms", "Sync ms", "R-speedup", "W-speedup", "S-speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-8d %12.1f %12.1f %12.1f %9.2fx %9.2fx %9.2fx\n",
			row.Width, row.ReadWallMs, row.WriteWallMs, row.SyncWallMs,
			row.ReadSpeedup, row.WriteSpeedup, row.SyncSpeedup)
	}
	id := "byte-identical data at every width"
	if !r.ByteIdentical {
		id = "DATA DIVERGED — fan-out corrupted bytes"
	}
	det := "identical placement at every width"
	if !r.Deterministic {
		det = "PLACEMENT DIVERGED — nondeterministic data path"
	}
	fmt.Fprintf(w, "  integrity: %s; determinism: %s\n", id, det)
}

// Format prints the metadata hot-path scaling measurement.
func (r *E8Result) Format(w io.Writer) {
	fmt.Fprintln(w, "E8 — metadata hot path: open/stat/cached-read/create-unlink churn, 1→32 client goroutines")
	fmt.Fprintln(w, "  (wall time with governed background writers rewriting the hot set; lock-free reads dodge the write's device time)")
	fmt.Fprintf(w, "  %-8s %12s %12s %14s %10s\n", "Clients", "Wall ms", "Ops", "Ops/sec", "Scaling")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-8d %12.1f %12d %14.0f %9.2fx\n",
			row.G, row.WallMs, row.Ops, row.OpsPerSec, row.Speedup)
	}
	id := "every cached read returned the staged pattern"
	if !r.ByteIdentical {
		id = "DATA DIVERGED — a cached read returned stale or torn bytes"
	}
	acc := "Statfs accounting balanced after churn"
	if !r.Consistent {
		acc = "ACCOUNTING DIVERGED — files lost or leaked"
	}
	fmt.Fprintf(w, "  integrity: %s; %s\n", id, acc)
	fmt.Fprintf(w, "  headline: %.0f ops/sec aggregate at 16 clients (%.2fx the single-client rate)\n", r.OpsAt16, r.ScaleAt16)
}

// Format prints the mirror-routing comparison.
func (r *E10Result) Format(w io.Writer) {
	fmt.Fprintln(w, "E10 — mirror-read routing: 8 readers over 8 hot SSD files x 1 MiB, PM mirrors vs PM migration")
	fmt.Fprintln(w, "  (wall time under per-device governors: PM 2 ms/MiB, SSD 4 ms/MiB, HDD 12 ms/MiB; degraded PM browns out to 40 ms/MiB)")
	fmt.Fprintf(w, "  %-16s %10s %10s %13s %9s\n", "Config", "Wall ms", "MB/s", "Mirror share", "Errors")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-16s %10.1f %10.1f %12.0f%% %9d\n",
			row.Config, row.WallMs, row.MBps, 100*row.MirrorShare, row.UserErrs)
	}
	fmt.Fprintf(w, "  routed vs migrate-only: %.2fx; routed vs fallback-only: %.2fx; degraded vs fallback-only: %.2fx\n",
		r.RoutedVsMigrate, r.RoutedVsFallback, r.DegradedVsFallback)
	fmt.Fprintf(w, "  mirror share healthy → degraded: %.0f%% → %.0f%% (the router abandons the sick copy)\n",
		100*r.HealthyMirrorShare, 100*r.DegradedMirrorShare)
	id := "every read returned the staged pattern"
	if !r.ByteIdentical {
		id = "DATA DIVERGED — a routed read returned wrong bytes"
	}
	fmt.Fprintf(w, "  integrity: %s\n", id)
}

// Format prints the crash-consistency sweep and recovery-speed results.
func (r *E11Result) Format(w io.Writer) {
	fmt.Fprintln(w, "E11 — crash consistency: deterministic crash-point sweep + recovery speed")
	fmt.Fprintln(w, "  sweep: each op re-run crashing after every durability step, then remount + scrub + fsck")
	fmt.Fprintf(w, "  %-16s %8s %12s\n", "Op", "Points", "Violations")
	for _, row := range r.Sweep {
		fmt.Fprintf(w, "  %-16s %8d %12d\n", row.Op, row.Points, row.Violations)
	}
	verdict := "all crash points recover to a consistent image"
	if r.Violations > 0 {
		verdict = "CONTRACT VIOLATED — a crash point produced an inconsistent image"
	}
	fmt.Fprintf(w, "  total: %d crash points swept, %d violations (%s)\n", r.PointsSwept, r.Violations, verdict)
	workers := 0
	if len(r.Recovery) > 0 {
		workers = r.Recovery[0].Workers
	}
	fmt.Fprintf(w, "  recovery wall time, RecoveryWorkers=1 vs %d (replay | fsck); min of 3 runs:\n", workers)
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Fprintln(w, "  NOTE: GOMAXPROCS=1 on this host — the parallel path runs concurrently but cannot beat serial wall time here")
	}
	fmt.Fprintf(w, "  %-10s %9s %9s %8s %9s %9s %8s\n",
		"Files", "ser ms", "par ms", "speedup", "ser ms", "par ms", "speedup")
	for _, row := range r.Recovery {
		fmt.Fprintf(w, "  %-10d %9.1f %9.1f %7.2fx %9.1f %9.1f %7.2fx\n",
			row.Files, row.ReplaySerialMs, row.ReplayParallelMs, row.ReplaySpeedup,
			row.FsckSerialMs, row.FsckParallelMs, row.FsckSpeedup)
	}
	ck := r.Checkpoint
	fmt.Fprintf(w, "  checkpointing: %d files + %d churn writes — full-history replay %d records, %d B vs checkpointed %d records, %d B (%.1fx, %.1fx); wall %.1f ms vs %.1f ms (%.1fx)\n",
		ck.Files, ck.ChurnWrites, ck.FullLogRecords, ck.FullLogBytes, ck.CheckpointRecords, ck.CheckpointBytes,
		ck.RecordRatio, ck.ByteRatio, ck.FullLogMs, ck.CheckpointMs, ck.Speedup)
}

// WriteJSON writes one experiment's result to <dir>/BENCH_<exp>.json as
// indented JSON, so the perf trajectory is machine-readable across runs.
func WriteJSON(dir, exp string, result any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(map[string]any{"experiment": exp, "result": result}, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+exp+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// Rule prints a section separator.
func Rule(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}
