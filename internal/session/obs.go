package session

import (
	"flag"
	"fmt"
	"os"

	"ucudnn/internal/core"
	"ucudnn/internal/faults"
	"ucudnn/internal/obs"
	"ucudnn/internal/prof"
)

// ObsFlags is the observability flag block the runner CLIs share:
// -metrics, -faults and -profile, with one lifecycle behind them (Run).
type ObsFlags struct {
	Metrics string
	Faults  string
	Profile string
}

// Register declares the flags on fs.
func (f *ObsFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Metrics, "metrics", "", "write µ-cuDNN metrics at exit (\"-\" for stdout, .prom for Prometheus)")
	fs.StringVar(&f.Faults, "faults", "", "arm a fault-injection schedule, e.g. \"ucudnn_fp_convolve=nth:3;ucudnn_fp_arena_grow=every:2,shrink=4\"")
	fs.StringVar(&f.Profile, "profile", "", "write a per-phase cost-attribution report at exit (\"-\" for a table on stdout, else JSON)")
}

// Run brackets body with everything the flags ask for: the metrics
// registry (created when -metrics is given; nil otherwise), the fault
// schedule parsed from -faults (nil otherwise; its fired injections
// count into the metrics registry) and the phase profiler. body attaches
// the schedule to the runs it builds and returns the plan table
// (core.Handle.Report) of every µ-cuDNN handle it built, in creation
// order; after a successful body Run writes the profile joined against
// those tables, then the metrics file. The fired shots go to stderr
// whatever body returns, so any failure under injection is reproducible
// from the output alone.
func (f ObsFlags) Run(body func(reg *obs.Registry, fr *faults.Registry) ([]core.HandleReport, error)) error {
	var reg *obs.Registry
	if f.Metrics != "" {
		reg = obs.NewRegistry()
	}
	var fr *faults.Registry
	if f.Faults != "" {
		var err error
		if fr, err = faults.Parse(f.Faults); err != nil {
			return err
		}
		fr.SetMetrics(reg)
		defer func() {
			fmt.Fprintf(os.Stderr, "faults: schedule %q fired [%s]\n", fr.String(), fr.ShotLog())
		}()
	}
	if f.Profile != "" {
		prof.Enable()
		defer prof.Disable()
	}
	handles, err := body(reg, fr)
	if err != nil {
		return err
	}
	if err := core.WriteProfileFile(f.Profile, handles); err != nil {
		return err
	}
	return reg.WriteFile(f.Metrics)
}
