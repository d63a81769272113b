package fleet

import (
	"context"
	"sort"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/cloud"
	"github.com/neu-sns/intl-iot-go/internal/faults"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/par"
)

// homeResult carries one home's fold input back to the consumer.
type homeResult struct {
	agg *Aggregate
	dur time.Duration
	err error
}

// Run plans and executes a fleet campaign, returning the merged
// fleet-level Aggregate. Homes are the jobs of a par.Ordered pool on
// Workers goroutines — at most 2×workers homes synthesized but not yet
// folded — and fold into the aggregate serially in home-index order, so
// the result is byte-identical for any worker count and peak heap stays
// O(workers × window + aggregate).
//
// A nil registry disables instrumentation; otherwise Run maintains the
// fleet_homes_completed and fleet_aggregate_bytes_high_water gauges and
// the fleet_home_duration histogram as homes complete. On context
// cancellation Run lets the homes already synthesizing finish, drops
// them, and returns the partial aggregate with ctx.Err(); no goroutine
// it started outlives it.
func Run(ctx context.Context, cfg Config, reg *obs.Registry) (*Aggregate, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	specs, err := Plan(cfg)
	if err != nil {
		return nil, err
	}
	workers := min(par.Workers(cfg.Workers), len(specs))

	// One simulated Internet per distinct fault profile: a clean home
	// must never share an Internet with one riding cloud outages, but
	// every home on the same profile can — resolution is
	// order-independent by construction (the geo DB pre-allocates) and
	// fault decisions are pure hashes.
	type backend struct {
		internet *cloud.Internet
		eng      *faults.Engine
	}
	profiles := map[string]bool{}
	for _, s := range specs {
		profiles[s.FaultProfile] = true
	}
	names := make([]string, 0, len(profiles))
	for name := range profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	backends := make(map[string]backend, len(names))
	for _, name := range names {
		prof, err := faults.ByName(name)
		if err != nil {
			return nil, err
		}
		internet := cloud.New()
		eng := faults.New(prof, cfg.Seed)
		if eng.Enabled() {
			internet.SetFaults(eng)
			internet.SetSeed(cfg.Seed)
		}
		backends[name] = backend{internet: internet, eng: eng}
	}

	homesDone := reg.Gauge("fleet_homes_completed")
	aggHighWater := reg.Gauge("fleet_aggregate_bytes_high_water")
	homeDur := reg.Histogram("fleet_home_duration", obs.DurationBuckets)

	total, err := NewAggregate(cfg.Precision, cfg.TrackExact)
	if err != nil {
		return nil, err
	}

	done, highWater := 0, 0
	err = par.Ordered(ctx, workers, func(submit func(func() homeResult) bool) {
		for _, spec := range specs {
			be := backends[spec.FaultProfile]
			if !submit(func() homeResult {
				start := time.Now()
				agg, err := runHome(spec, be.internet, be.eng, cfg)
				return homeResult{agg: agg, dur: time.Since(start), err: err}
			}) {
				return
			}
		}
	}, func(res homeResult) error {
		if res.err != nil {
			return res.err
		}
		if err := total.Merge(res.agg); err != nil {
			return err
		}
		done++
		homeDur.ObserveDuration(res.dur)
		homesDone.Set(float64(done))
		if sz := total.SizeBytes(); sz > highWater {
			highWater = sz
			aggHighWater.Set(float64(sz))
		}
		if cfg.Progress != nil {
			cfg.Progress(done, len(specs))
		}
		return nil
	})
	return total, err
}
