package fleet

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/devices"
	"github.com/neu-sns/intl-iot-go/internal/reshape"
	"github.com/neu-sns/intl-iot-go/internal/sketch"
)

// MaxHomes bounds a fleet to what the 10.0.0.0/8 home-subnet scheme can
// address; real campaigns are far smaller.
const MaxHomes = 50000

// Config sizes a fleet campaign.
type Config struct {
	// Homes is the fleet size N.
	Homes int
	// Seed derives every per-home seed, roster and clock offset.
	Seed int64
	// Workers bounds cross-home parallelism: 0 means GOMAXPROCS, 1
	// synthesizes one home at a time. Results are byte-identical for
	// any value, like the analysis pipeline's -analysis-workers.
	Workers int
	// Precision is the HLL precision p (2^p registers); 0 means
	// sketch.DefaultPrecision.
	Precision int
	// TrackExact keeps exact distinct-key sets alongside the sketches
	// so tests can validate the documented error bounds. Costs O(keys)
	// memory — validation fleets only.
	TrackExact bool
	// Progress, when set, is called after each home folds into the
	// fleet aggregate (done homes, total homes). Called serially, in
	// home order.
	Progress func(done, total int)
}

// HomeSpec is one planned home: everything its synthesis needs, derived
// deterministically from (Config.Seed, Index).
type HomeSpec struct {
	Index  int
	Region string // "US" or "GB": egress country and catalog vantage
	Seed   int64
	// FaultProfile is a faults.ByName key; "" is a clean home.
	FaultProfile string
	// ReshapeStack is a single reshape transform name ("" = undefended
	// home); ReshapeBudget is its overhead budget. Defended homes model
	// privacy-conscious households running a traffic-reshaping box.
	ReshapeStack  string
	ReshapeBudget float64
	// ClockOffset staggers the home's campaign start within 24 h of
	// the study epoch.
	ClockOffset time.Duration
	// Devices are catalog profile names deployed in this home.
	Devices []string
	Subnet  netip.Prefix
}

// homeSeed mixes the fleet seed and home index through the splitmix64
// finalizer so neighbouring homes get unrelated RNG streams.
func homeSeed(fleetSeed int64, index int) int64 {
	z := uint64(fleetSeed)*0x9e3779b97f4a7c15 + uint64(index+1)
	z ^= z >> 33
	z *= 0xff51afd7ed558ccd
	z ^= z >> 33
	z *= 0xc4ceb9fe1a85ec53
	z ^= z >> 33
	return int64(z)
}

// Plan expands a Config into the full fleet: a pure function of
// (Homes, Seed), so every worker count — and every re-run — sees the
// same homes.
func Plan(cfg Config) ([]HomeSpec, error) {
	if cfg.Homes < 1 || cfg.Homes > MaxHomes {
		return nil, fmt.Errorf("fleet: home count %d out of range [1, %d]", cfg.Homes, MaxHomes)
	}
	if p := cfg.Precision; p != 0 && (p < sketch.MinPrecision || p > sketch.MaxPrecision) {
		return nil, fmt.Errorf("fleet: HLL precision %d out of range [%d, %d]", p, sketch.MinPrecision, sketch.MaxPrecision)
	}
	catalog := devices.Catalog()
	specs := make([]HomeSpec, cfg.Homes)
	for i := range specs {
		seed := homeSeed(cfg.Seed, i)
		rng := rand.New(rand.NewSource(seed))

		region := devices.LabUS
		if rng.Intn(2) == 1 {
			region = devices.LabUK
		}
		// Draw 3–8 devices deployable in the region, without
		// replacement, preserving nothing of catalog order beyond the
		// deterministic shuffle.
		var pool []string
		for _, p := range catalog {
			if p.InLab(region) {
				pool = append(pool, p.Name)
			}
		}
		count := 3 + rng.Intn(6)
		if count > len(pool) {
			count = len(pool)
		}
		names := make([]string, count)
		for j, k := range rng.Perm(len(pool))[:count] {
			names[j] = pool[k]
		}

		// Most homes are clean; a fifth sit behind a lossy access
		// link, a tenth ride through rolling cloud outages. (flaky-vpn
		// is excluded: homes have no site-to-site tunnel.)
		profile := ""
		switch r := rng.Float64(); {
		case r < 0.70:
			profile = ""
		case r < 0.90:
			profile = "lossy-home"
		default:
			profile = "outage"
		}

		// A minority of homes run a traffic-reshaping defense. The draw
		// comes after every other one so adding defenses did not reshuffle
		// the fleet's existing campaign plan. 60% are undefended; the
		// rest pick one transform and one budget tier.
		stack := ""
		budget := 0.0
		if rng.Float64() >= 0.60 {
			stacks := []string{
				reshape.TransformPad, reshape.TransformShape,
				reshape.TransformDummy, reshape.TransformVPN,
			}
			budgets := []float64{0.1, 0.3, 0.5}
			stack = stacks[rng.Intn(len(stacks))]
			budget = budgets[rng.Intn(len(budgets))]
		}

		specs[i] = HomeSpec{
			Index:         i,
			Region:        region,
			Seed:          seed,
			FaultProfile:  profile,
			ReshapeStack:  stack,
			ReshapeBudget: budget,
			ClockOffset:   time.Duration(rng.Int63n(int64(24 * time.Hour))),
			Devices:       names,
			Subnet: netip.PrefixFrom(
				netip.AddrFrom4([4]byte{10, byte(1 + i/200), byte(i % 200), 0}), 24),
		}
	}
	return specs, nil
}
