// Package robustness sweeps traffic-reshaping defenses against the full
// analysis pipeline and reports the attack/defense matrix: how much each
// defense, at each overhead budget, degrades activity inference (§6.3)
// and idle-activity detection (§7), how far the destination/encryption/
// PII tables drift, and what the defense costs in bytes and latency.
// Every cell runs the same deterministic campaign, so the matrix is
// byte-identical run-to-run and independent of the analysis worker
// count.
package robustness

import (
	"fmt"
	"strings"

	"github.com/neu-sns/intl-iot-go/internal/analysis"
	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/report"
	"github.com/neu-sns/intl-iot-go/internal/reshape"
)

// Config sizes a sweep.
type Config struct {
	// Campaign is the base (undefended) campaign every cell replays; its
	// Reshape fields are ignored — the sweep supplies its own stacks.
	Campaign experiments.Config
	// Stacks lists the defense stacks to evaluate. Nil means every
	// single transform plus the full stack.
	Stacks [][]string
	// Budgets lists the overhead budgets per stack. Nil means
	// {0.1, 0.3, 0.5}.
	Budgets []float64
	// Seed seeds every defense engine (0 = the campaign seed).
	Seed int64
	// Workers bounds each cell's analysis parallelism (0 = per core).
	// The matrix is byte-identical for any value.
	Workers int
	// Progress, when non-nil, is called after each completed cell.
	Progress func(done, total int)
}

// DefaultStacks is the swept defense set: each transform alone, then
// the full stack in canonical order.
func DefaultStacks() [][]string {
	var out [][]string
	for _, name := range reshape.KnownTransforms {
		out = append(out, []string{name})
	}
	out = append(out, append([]string(nil), reshape.KnownTransforms...))
	return out
}

// DefaultBudgets is the swept overhead-budget set.
func DefaultBudgets() []float64 { return []float64{0.1, 0.3, 0.5} }

// Cell is one (defense stack, budget) evaluation against the baseline.
type Cell struct {
	Stack  string
	Budget float64

	MeanF1     float64 // mean per-device activity-inference F1
	HighAcc    int     // devices above the §7.1 high-accuracy bar
	Detections int     // idle-activity detections (§7.2)

	// DetectionRate is Detections relative to the undefended baseline
	// (1 = defense changed nothing, 0 = detector fully blinded).
	DetectionRate float64
	// TableDrift is the fraction of differing cells across the
	// destination (Table 2), encryption (Table 5) and PII tables.
	TableDrift float64

	// Measured overheads, from the campaign's own statistics and the
	// reshape_* counters — not assumed from the budget.
	BytesOverhead   float64 // (defended − baseline) / baseline wire bytes
	PacketsOverhead float64 // same, in packets
	MeanDelayMS     float64 // mean queueing delay over shaped packets
	DroppedFrac     float64 // shaper drops / baseline packets
}

// Result is a finished sweep.
type Result struct {
	Baseline Cell // the undefended reference row (budget 0, empty stack)
	Cells    []Cell
}

type run struct {
	cell    Cell
	stats   experiments.Stats
	idle    experiments.Stats
	tables  []*report.Table
	metrics *obs.Registry
}

// Sweep replays the campaign once undefended and once per (stack,
// budget) pair, measuring each defended run against the baseline.
func Sweep(cfg Config) (*Result, error) {
	stacks := cfg.Stacks
	if stacks == nil {
		stacks = DefaultStacks()
	}
	budgets := cfg.Budgets
	if budgets == nil {
		budgets = DefaultBudgets()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = cfg.Campaign.Seed
	}

	total := len(stacks)*len(budgets) + 1
	done := 0
	step := func() {
		done++
		if cfg.Progress != nil {
			cfg.Progress(done, total)
		}
	}

	base, err := runCell(cfg, nil, 0, seed)
	if err != nil {
		return nil, err
	}
	step()

	res := &Result{Baseline: base.cell}
	for _, stack := range stacks {
		for _, budget := range budgets {
			r, err := runCell(cfg, stack, budget, seed)
			if err != nil {
				return nil, err
			}
			c := r.cell
			if base.cell.Detections > 0 {
				c.DetectionRate = float64(c.Detections) / float64(base.cell.Detections)
			} else if c.Detections > 0 {
				c.DetectionRate = 1
			}
			c.TableDrift = drift(base.tables, r.tables)
			baseBytes := base.stats.Bytes + base.idle.Bytes
			basePkts := base.stats.Packets + base.idle.Packets
			if baseBytes > 0 {
				c.BytesOverhead = float64(r.stats.Bytes+r.idle.Bytes-baseBytes) / float64(baseBytes)
			}
			if basePkts > 0 {
				c.PacketsOverhead = float64(r.stats.Packets+r.idle.Packets-basePkts) / float64(basePkts)
				c.DroppedFrac = float64(r.metrics.Counter("reshape_dropped_packets_total").Value()) / float64(basePkts)
			}
			if shaped := r.metrics.Counter("reshape_shaped_packets_total").Value(); shaped > 0 {
				c.MeanDelayMS = float64(r.metrics.Counter("reshape_delay_ns_total").Value()) / float64(shaped) / 1e6
			}
			res.Cells = append(res.Cells, c)
			step()
		}
	}
	return res, nil
}

// runCell replays the campaign under one defense configuration.
func runCell(cfg Config, stack []string, budget float64, seed int64) (*run, error) {
	runner, err := experiments.NewRunner(cfg.Campaign)
	if err != nil {
		return nil, err
	}
	eng, err := reshape.New(reshape.Config{Stack: stack, Seed: seed, Budget: budget})
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	p := analysis.NewPipeline(runner)
	p.Defense = eng
	p.Workers = cfg.Workers
	p.SetObs(reg)
	p.Run(analysis.DefaultInferConfig())

	c := Cell{Stack: stackLabel(stack), Budget: budget, Detections: len(p.IdleHits.Detections)}
	for _, inf := range p.Inference {
		c.MeanF1 += inf.DeviceF1
		if inf.DeviceF1 > analysis.HighAccuracyThreshold {
			c.HighAcc++
		}
	}
	if len(p.Inference) > 0 {
		c.MeanF1 /= float64(len(p.Inference))
	}
	return &run{
		cell:  c,
		stats: p.Stats,
		idle:  p.IdleStats,
		tables: []*report.Table{
			report.Table2(p.Dest),
			report.Table5(p.Enc),
			report.PIIReport(p.Content.Findings()),
		},
		metrics: reg,
	}, nil
}

func stackLabel(stack []string) string {
	if len(stack) == 0 {
		return "(none)"
	}
	return strings.Join(stack, "+")
}

// drift measures the fraction of table cells that differ between the
// baseline and a defended run, across paired tables. Rows present in
// only one run count every cell as drifted.
func drift(base, got []*report.Table) float64 {
	var total, differ int
	for i := range base {
		b, g := base[i], got[i]
		rows := len(b.Rows)
		if len(g.Rows) > rows {
			rows = len(g.Rows)
		}
		for r := 0; r < rows; r++ {
			cols := len(b.Headers)
			for cIdx := 0; cIdx < cols; cIdx++ {
				total++
				var bv, gv string
				if r < len(b.Rows) && cIdx < len(b.Rows[r]) {
					bv = b.Rows[r][cIdx]
				}
				if r < len(g.Rows) && cIdx < len(g.Rows[r]) {
					gv = g.Rows[r][cIdx]
				}
				if bv != gv {
					differ++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(differ) / float64(total)
}

// Table renders the attack/defense matrix.
func (r *Result) Table() *report.Table {
	t := &report.Table{
		Title: "Traffic reshaping: attack/defense robustness matrix",
		Headers: []string{"Defense", "Budget", "Mean F1", "ΔF1", "High-acc devices",
			"Idle det.", "Det. rate", "Table drift", "Byte ovh", "Pkt ovh", "Delay ms", "Dropped"},
	}
	t.AddRow("(none)", "—", f3(r.Baseline.MeanF1), "—", itoa(r.Baseline.HighAcc),
		itoa(r.Baseline.Detections), "1.000", "0.0%", "—", "—", "—", "—")
	for _, c := range r.Cells {
		t.AddRow(
			c.Stack,
			fmt.Sprintf("%.2f", c.Budget),
			f3(c.MeanF1),
			fmt.Sprintf("%+.3f", c.MeanF1-r.Baseline.MeanF1),
			itoa(c.HighAcc),
			itoa(c.Detections),
			f3(c.DetectionRate),
			pct(c.TableDrift),
			pct(c.BytesOverhead),
			pct(c.PacketsOverhead),
			fmt.Sprintf("%.1f", c.MeanDelayMS),
			pct(c.DroppedFrac),
		)
	}
	return t
}

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
func itoa(v int) string    { return fmt.Sprintf("%d", v) }
