package muxfs

import (
	"time"

	"muxfs/internal/core"
	"muxfs/internal/ec"
	"muxfs/internal/muxns"
	"muxfs/internal/policy"
	"muxfs/internal/policy/autotune"
	"muxfs/internal/telemetry"
	"muxfs/internal/vfs"
)

// Core types, re-exported as the public API surface.

// Mux is the tiered file system (the paper's contribution).
type Mux = core.Mux

// FileSystem is the VFS interface implemented by Mux and by every native
// file system in this module.
type FileSystem = vfs.FileSystem

// File is an open file handle.
type File = vfs.File

// FileInfo describes a file.
type FileInfo = vfs.FileInfo

// DirEntry is one directory listing entry.
type DirEntry = vfs.DirEntry

// StatFS is file-system-wide capacity accounting.
type StatFS = vfs.StatFS

// SetAttr is a partial metadata update.
type SetAttr = vfs.SetAttr

// Extent is an allocated run of a sparse file.
type Extent = vfs.Extent

// OCCStats reports the OCC Synchronizer's counters.
type OCCStats = core.OCCStats

// MigrationStats summarizes one Policy Runner round: moves planned,
// executed, skipped (including moves dropped against quarantined tiers),
// replicas repaired by reintegration, OCC conflicts, bytes moved, and
// virtual/wall time.
type MigrationStats = core.MigrationStats

// TierHealthInfo is a per-tier health snapshot: breaker state, device-fault
// and retry counters, and the number of replicas degraded onto other tiers
// while this tier was quarantined.
type TierHealthInfo = core.TierHealthInfo

// CacheStats reports SCM cache counters.
type CacheStats = core.CacheStats

// TelemetrySnapshot is the unified observability view: per-tier op latency
// distributions and counts, metadata-op counts, the subsumed
// cache/OCC/BLT/migration/health stats, the recent trace events, and
// every family /metrics exports.
type TelemetrySnapshot = core.TelemetrySnapshot

// OpTelemetry summarizes one per-tier op series (count, bytes, errors,
// latency quantiles).
type OpTelemetry = core.OpTelemetry

// BLTInfo is the Block Lookup Table footprint.
type BLTInfo = core.BLTInfo

// TraceEvent is one slow/failed-operation trace record.
type TraceEvent = telemetry.TraceEvent

// StripeSet is a composite erasure-coded tier spanning several remote
// nodes (see System.AddRemoteStripeTier).
type StripeSet = ec.StripeSet

// StripeSetStatus is a stripe set's health snapshot.
type StripeSetStatus = ec.SetStatus

// StripeNodeStatus is one stripe node's health snapshot.
type StripeNodeStatus = ec.NodeStatus

// StripeRebuildStats summarizes a node rebuild.
type StripeRebuildStats = ec.RebuildStats

// StripeScrubStats summarizes a parity verification pass.
type StripeScrubStats = ec.ScrubStats

// Policy is the tiering policy interface (§2.1).
type Policy = policy.Policy

// WriteCtx describes a write being placed.
type WriteCtx = policy.WriteCtx

// TierInfo is the per-tier usage/profile snapshot policies decide over.
type TierInfo = policy.TierInfo

// FileStat is the per-file heat snapshot for migration planning.
type FileStat = policy.FileStat

// Move is one planned migration.
type Move = policy.Move

// Quota caps the bytes a path prefix may occupy on one tier.
type Quota = policy.Quota

// Param is one tunable policy knob: a named float64 with hard clamps and a
// probe step (policies implementing Tunable expose them; the autotuner
// walks them).
type Param = policy.Param

// ParamKind says how a Param's value is interpreted (fraction, duration,
// bytes, scalar).
type ParamKind = policy.ParamKind

// Param kinds.
const (
	KindFraction = policy.KindFraction
	KindDuration = policy.KindDuration
	KindBytes    = policy.KindBytes
	KindScalar   = policy.KindScalar
)

// Tunable is a Policy that exposes runtime-adjustable Params.
type Tunable = policy.Tunable

// AutotuneOptions configures the feedback controller
// (Mux.EnableAutotune): objective weights, hysteresis, decision cadence.
type AutotuneOptions = autotune.Options

// AutotuneStatus is the controller summary (`muxsh autotune status`,
// mux_autotune_* metrics).
type AutotuneStatus = autotune.Status

// AutotuneDecision is one audited controller action from the decision log.
type AutotuneDecision = autotune.Decision

// Tuner is the feedback controller driving a Tunable policy's knobs
// (Mux.Autotuner).
type Tuner = autotune.Tuner

// TenantTelemetry is one tenant's attributed op counters, latency
// quantiles, and per-tier occupancy (Mux.TenantTelemetrySnapshot).
type TenantTelemetry = core.TenantTelemetry

// NewQuotaPolicy wraps base with per-prefix tier quotas; the Policy Runner
// demotes the coldest over-quota files to the next slower tier.
func NewQuotaPolicy(base Policy, quotas ...Quota) Policy {
	return &policy.QuotaPolicy{Base: base, Quotas: quotas}
}

// TimeStamp is a virtual-clock timestamp.
type TimeStamp = time.Duration

// Sentinel errors.
var (
	ErrNotExist        = vfs.ErrNotExist
	ErrExist           = vfs.ErrExist
	ErrIsDir           = vfs.ErrIsDir
	ErrNotDir          = vfs.ErrNotDir
	ErrNotEmpty        = vfs.ErrNotEmpty
	ErrNoSpace         = vfs.ErrNoSpace
	ErrInvalid         = vfs.ErrInvalid
	ErrClosed          = vfs.ErrClosed
	ErrConflict        = vfs.ErrConflict
	ErrNoTiers         = core.ErrNoTiers
	ErrTierBusy        = core.ErrTierBusy
	ErrUnknownTier     = core.ErrUnknownTier
	ErrMigrationActive = core.ErrMigrationActive
	ErrTierQuarantined = core.ErrTierQuarantined
	// ErrStripeDegraded reports a stripe-tier operation that failed because
	// more nodes were down than parity covers.
	ErrStripeDegraded = ec.ErrDegraded
	// ErrRPCHandshake reports a remote dial that connected but failed the
	// muxns hello handshake (wrong service on the port).
	ErrRPCHandshake = muxns.ErrHandshake
)
