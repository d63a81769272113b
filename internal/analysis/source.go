package analysis

import (
	"github.com/neu-sns/intl-iot-go/internal/cloud"
	"github.com/neu-sns/intl-iot-go/internal/experiments"
	"github.com/neu-sns/intl-iot-go/internal/obs"
)

// Source streams one campaign's labelled experiments through the
// pipeline. Two implementations exist: *experiments.Runner synthesizes
// a campaign in-process (the default), and internal/ingest replays a
// Mon(IoT)r-style capture directory recorded at real gateways, either
// buffered whole and replayed through the contract below or, with
// ingest.Options.Stream, folded into the collectors during its one
// decode pass. The pipeline folds both the same way (fold.go) — given
// the same experiment stream all produce byte-identical tables. A
// source delivers the experiments as emitted; a traffic-reshaping
// defense is the pipeline's own prep step (Pipeline.Defense), not a
// property of the source.
type Source interface {
	// Internet exposes the (simulated) server side the captures talk
	// to; the destination analysis needs its org registry and
	// Passport-style locators. Capture-replay sources return a freshly
	// built model, which allocates identically by construction.
	Internet() *cloud.Internet
	// RunControlled streams every controlled (power + interaction)
	// experiment to visit, in a deterministic order independent of any
	// internal parallelism, and returns the leg's campaign statistics.
	RunControlled(experiments.Visitor) experiments.Stats
	// RunIdle does the same for the idle capture windows.
	RunIdle(experiments.Visitor) experiments.Stats
	// SetObs attaches a metrics registry; instrumentation must be
	// nil-safe and change no experiment output.
	SetObs(*obs.Registry)
}

// Statically assert that the synthesis runner feeds the pipeline.
var _ Source = (*experiments.Runner)(nil)
