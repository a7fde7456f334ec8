package fleet

// The coordinator role's exposition families: the shared front end's
// (RED request metrics and open jobs — the same hbat_fabric_* names a
// worker exports; dashboards tell the tiers apart by scrape target)
// plus hbat_fleet_* state — worker registry states, per-worker
// dispatched specs, retries, and no-worker rejections. hbatd hands
// MetricsFamilies to obs.Config.Extra, so /metrics serves one
// exposition.

import "hbat/internal/obs"

// MetricsFamilies exports the coordinator's metrics; hand it to
// obs.Config.Extra. Series are emitted in sorted label order so
// scrapes are stable.
func (c *Coordinator) MetricsFamilies() []obs.Family {
	c.mu.Lock()
	retries, noWorkers := c.retries, c.noWorkers
	c.mu.Unlock()

	workers := obs.Family{
		Name: "hbat_fleet_worker_state", Kind: "gauge",
		Help: "Registered workers by probed state (1 = the worker is in this state).",
	}
	dispatched := obs.Family{
		Name: "hbat_fleet_specs_dispatched", Kind: "counter",
		Help: "Specs dispatched to each worker, including retries.",
	}
	for _, w := range c.registry() {
		snap := w.snapshot()
		w.mu.Lock()
		n := w.dispatched
		w.mu.Unlock()
		workers.Series = append(workers.Series, obs.Series{
			Labels: []obs.Label{{Name: "worker", Value: snap.Addr}, {Name: "state", Value: snap.State}},
			Value:  1,
		})
		dispatched.Series = append(dispatched.Series, obs.Series{
			Labels: []obs.Label{{Name: "worker", Value: snap.Addr}},
			Value:  float64(n),
		})
	}
	if len(workers.Series) == 0 {
		workers.Series = []obs.Series{{Labels: []obs.Label{{Name: "worker", Value: "none"}, {Name: "state", Value: "down"}}, Value: 0}}
		dispatched.Series = []obs.Series{{Labels: []obs.Label{{Name: "worker", Value: "none"}}, Value: 0}}
	}

	return append(c.Front.MetricsFamilies(), workers, dispatched,
		obs.Scalar("hbat_fleet_spec_retries", "counter",
			"Spec attempts re-dispatched to a different worker after a failure or timeout.", float64(retries)),
		obs.Scalar("hbat_fleet_no_worker_events", "counter",
			"Dispatch or submission attempts that found no live worker.", float64(noWorkers)))
}
