package psim

import (
	"time"

	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The host-script vocabulary is internal/workload's; these names remain
// because perf/ and the engine's callers spell them.
type (
	EventKind    = workload.EventKind
	MHEvent      = workload.Event
	ScriptConfig = workload.Script
	// Issued records one scripted request for post-run verification.
	Issued = workload.Issued
)

const (
	EvMigrate    = workload.EvMigrate
	EvDeactivate = workload.EvDeactivate
	EvActivate   = workload.EvActivate
	EvRequest    = workload.EvRequest
	EvDisconnect = workload.EvDisconnect
	EvReconnect  = workload.EvReconnect
	EvFlush      = workload.EvFlush
	EvCrash      = workload.EvCrash
	EvRestart    = workload.EvRestart
)

// BuildScript generates one host's full life — start cell, itinerary,
// request arrivals, final flush (FlushAt, defaulting to Horizon + 500ms)
// — from the master seed and the host identifier alone. Each host draws
// from its own SubSeed stream, so the script is independent of every
// other host, of the partition, and of the worker count: the foundation
// of the engine's partition-invariant headline metrics.
func BuildScript(seed int64, id ids.MH, cells []ids.MSS, cfg ScriptConfig) (start ids.MSS, events []MHEvent) {
	cfg.Cells = cells
	if cfg.FlushAt == 0 {
		cfg.FlushAt = cfg.Horizon + 500*time.Millisecond
	}
	return cfg.Generate(sim.NewRNG(SubSeed(seed, int64(id))))
}
