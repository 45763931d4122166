package dist

import (
	"reclose/internal/obs"
)

// Metric names registered on the run's registry (Options.Obs). Worker
// processes have no route to it; everything observable about them is
// what Slice sees (batches, results, deaths), so the counters live
// here.
const (
	MetricBatches         = "dist.batches"
	MetricUnitsLeased     = "dist.units.leased"
	MetricUnitsReassigned = "dist.units.reassigned"
	MetricWorkerDeaths    = "dist.worker.deaths"
	MetricWorkerRespawns  = "dist.worker.respawns"
	MetricLeases          = "dist.leases.outstanding" // gauge
)

// distMetrics bundles the fleet's instruments; every field is
// nil — and every call free — when the registry is nil (the obs
// nil-receiver contract).
type distMetrics struct {
	batches    *obs.Counter
	leased     *obs.Counter
	reassigned *obs.Counter
	deaths     *obs.Counter
	respawns   *obs.Counter
	leases     *obs.Gauge
	sink       *obs.Sink
}

func newDistMetrics(reg *obs.Registry) *distMetrics {
	return &distMetrics{
		batches:    reg.Counter(MetricBatches),
		leased:     reg.Counter(MetricUnitsLeased),
		reassigned: reg.Counter(MetricUnitsReassigned),
		deaths:     reg.Counter(MetricWorkerDeaths),
		respawns:   reg.Counter(MetricWorkerRespawns),
		leases:     reg.Gauge(MetricLeases),
		sink:       reg.Sink(),
	}
}

// emitStart records the fleet size and where the state cache lives:
// "off", or "private" — one per worker process, nothing shared.
func (m *distMetrics) emitStart(workers int, stateCache bool) {
	cache := "off"
	if stateCache {
		cache = "private"
	}
	m.sink.Emit("dist_start",
		obs.F("workers", workers),
		obs.F("cache", cache))
}

func (m *distMetrics) emitBatch(slot int, id uint64, units int, budget int64) {
	m.batches.Inc()
	m.leased.Add(int64(units))
	m.leases.Add(1)
	m.sink.Emit("dist_batch",
		obs.F("slot", slot),
		obs.F("batch", id),
		obs.F("units", units),
		obs.F("budget", budget))
}

func (m *distMetrics) emitResult(slot int, id uint64) {
	m.sink.Emit("dist_result", obs.F("slot", slot), obs.F("batch", id))
}

func (m *distMetrics) emitDeath(slot int, reassigned int, reason string) {
	m.deaths.Inc()
	m.reassigned.Add(int64(reassigned))
	m.sink.Emit("dist_worker_death",
		obs.F("slot", slot),
		obs.F("reassigned", reassigned),
		obs.F("reason", reason))
}

func (m *distMetrics) emitRespawn(slot int) {
	m.respawns.Inc()
	m.sink.Emit("dist_worker_respawn", obs.F("slot", slot))
}
