// Command etsim runs a single et_sim simulation and prints the resulting
// statistics. It is the command-line front end for the sim package.
//
// A run can be described either ad hoc with the individual flags, or by
// naming a registered scenario:
//
//	etsim -mesh 4 -alg EAR -battery thinfilm -controllers 1 -v
//	etsim -list-scenarios
//	etsim -scenario stress-burst
//	etsim -scenario smartshirt-verified -trace shirt.csv
//	etsim -scenario random-mapping-sweep -seed 7
//	etsim -scenario degraded-fabric-mc -replications 50
//	etsim -scenario paper-default -mapping explicit:1,2,3,1,3,1,3,2,3,1,3,3,2,3,2,1
//	etsim -scenario optimized-4x4 -mapping checkerboard
//	etsim -mesh 8 -controlplane sharded -shards 4 -staleness 8
//	etsim -scenario paper-large -controlplane sharded -shards 4
//
// With -trace, the combined battery/throughput time-series of the run is
// written to the given file as deterministic CSV. With -verify (or a
// scenario that verifies payloads), any ciphertext mismatch is a hard
// failure: etsim exits non-zero.
//
// The stochastic knobs of a named scenario can be re-drawn without editing
// the registry: -seed N overrides the scenario's MappingSeed and
// FailedLinkSeed for a single run, and -replications M (M > 1) runs a full
// Monte-Carlo campaign over the scenario — M seed-stream replicates folded
// into mean ± CI / quantile aggregates, exactly as cmd/etcampaign does.
// -mapping overrides the scenario's module placement by strategy name, or
// replays an exact placement with explicit:<assignment> (the form cmd/etopt
// prints for its optimized placements). -controlplane/-shards/-staleness
// select the controller architecture (see internal/controlplane), both ad hoc
// and as overrides on a named scenario. -recompute selects the controller's
// phase-2 strategy (the incremental shortest-path-tree repair, the default,
// or the full per-destination pass); the two are byte-identical in every
// output for any -ear-q except the "recompute split" row, and the knob
// exists for equivalence checks and timing comparisons. The split row
// labels each recompute by the size of its change, not by the path that
// ran: in incremental mode every recompute after the first is a repair.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/battery"
	"repro/internal/campaign"
	"repro/internal/controlplane"
	"repro/internal/faults"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	var (
		scenarioName  = flag.String("scenario", "", "run a registered scenario by name (see -list-scenarios); conflicts with the ad-hoc configuration flags, combines with -trace/-verify/-v/-max-cycles")
		listScenarios = flag.Bool("list-scenarios", false, "list the registered scenarios and exit")
		asJSON        = flag.Bool("json", false, "with -list-scenarios: emit the machine-readable registry (name, description, group, mesh, algorithm, canonical fingerprint) instead of tables")
		traceFile     = flag.String("trace", "", "write the per-frame battery/throughput time-series to this file as CSV")
		spansFile     = flag.String("spans", "", "record the flight recorder's frame/phase spans and write them to this file as Chrome trace-event JSON (open in chrome://tracing or Perfetto); the run's stdout is unaffected")
		meshSize      = flag.Int("mesh", 4, "square mesh size (4..8 in the paper)")
		algName       = flag.String("alg", "EAR", "routing algorithm: EAR or SDR")
		batteryKind   = flag.String("battery", "thinfilm", "node battery model: thinfilm or ideal")
		controllers   = flag.Int("controllers", 1, "number of central controllers")
		ctrlBattery   = flag.Bool("controller-battery", false, "give controllers finite thin-film batteries (Sec 7.3)")
		concurrent    = flag.Int("jobs", 1, "number of concurrent jobs in flight")
		earQ          = flag.Float64("ear-q", routing.DefaultEARParams().Q, "EAR battery-weighting base Q")
		verify        = flag.Bool("verify", false, "carry a real AES payload and verify every completed job (mismatches exit non-zero)")
		maxCycles     = flag.Int64("max-cycles", 0, "stop after this many cycles (0 = run to system death)")
		perNode       = flag.Bool("v", false, "print per-node statistics")
		mappingName   = flag.String("mapping", "", "with -scenario: override the scenario's module mapping (checkerboard, proportional, row-major, random or explicit:<assignment>)")
		planeName     = flag.String("controlplane", "", "control-plane architecture: centralized (default) or sharded; overrides the scenario's when combined with -scenario")
		shards        = flag.Int("shards", 0, "number of regional controllers under -controlplane sharded (0 = default)")
		staleness     = flag.Int("staleness", 0, "summary-exchange period in frames between regional controllers (0 = every frame)")
		recompute     = flag.String("recompute", "", "controller phase-2 strategy: incremental (default; repairs the previous shortest-path trees on every recompute after the first) or full (reruns the whole shortest-path pass each time); outputs other than the recompute split, which labels changes by size rather than by the path that ran, are byte-identical either way; overrides the scenario's when combined with -scenario")
		faultSpec     = flag.String("faults", "", "runtime fault schedule, e.g. 'link=0.05:8,crash=0.02:12,wear=150,kill=1@40:120,seed=7' (see internal/faults); overrides the scenario's when combined with -scenario")
		seed          = flag.Uint64("seed", 1, "with -scenario: override the scenario's MappingSeed/FailedLinkSeed (single run) or seed the campaign stream (-replications > 1)")
		replications  = flag.Int("replications", 1, "with -scenario: run this many seed-stream replicates as a Monte-Carlo campaign and print aggregate statistics")
	)
	flag.Parse()

	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})

	if *listScenarios {
		if *asJSON {
			// The same registry document etserve's GET /scenarios serves, so
			// scripts can discover scenarios and their cache keys without a
			// running daemon.
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(scenario.Infos()); err != nil {
				fatal(err)
			}
			return
		}
		for _, t := range scenario.GroupedTables() {
			fmt.Print(t.Render())
		}
		return
	}
	if *asJSON {
		fatal(fmt.Errorf("-json currently only applies to -list-scenarios"))
	}

	var cfg sim.Config
	if *scenarioName != "" {
		// A named scenario fully describes the configuration; silently
		// ignoring an explicitly passed ad-hoc flag would run something other
		// than what the user asked for, so it is an error instead. The
		// run-shaping flags (-trace, -verify, -v, -max-cycles) still combine.
		if set := conflictingFlags(); len(set) > 0 {
			fatal(fmt.Errorf("-scenario %s already determines the configuration; drop the conflicting flag(s) %v",
				*scenarioName, set))
		}
		spec, ok := scenario.Lookup(*scenarioName)
		if !ok {
			fatal(fmt.Errorf("unknown scenario %q; -list-scenarios shows the %d registered ones",
				*scenarioName, len(scenario.Names())))
		}
		// The run-shaping flags still apply on top of a named scenario.
		if *verify {
			spec.VerifyPayload = true
		}
		if *perNode {
			spec.CollectNodeStats = true
		}
		if *maxCycles > 0 {
			spec.MaxCycles = *maxCycles
		}
		if *mappingName != "" {
			if err := applyMappingOverride(&spec, *mappingName); err != nil {
				fatal(err)
			}
		}
		if err := applyControlPlaneOverride(&spec, *planeName, *shards, *staleness, *recompute); err != nil {
			fatal(err)
		}
		if *faultSpec != "" {
			spec.Faults = *faultSpec
		}
		if seedSet {
			// Re-draw the scenario's stochastic knobs without editing the
			// registry: one ad-hoc draw for a single run, the campaign base
			// seed when replicating.
			spec.MappingSeed = *seed
			spec.FailedLinkSeed = *seed
		}
		if *replications > 1 {
			// A campaign aggregates across replicates; the per-run outputs
			// (frame traces, per-node tables) have no aggregate form here.
			if *traceFile != "" || *perNode || *spansFile != "" {
				fatal(fmt.Errorf("-replications %d aggregates across runs; drop -trace/-spans/-v", *replications))
			}
			res, err := campaign.Run(campaign.Spec{
				Scenario:     spec,
				Replications: *replications,
				Seed:         *seed,
			})
			if err != nil {
				fatal(err)
			}
			fmt.Print(res.Table().Render())
			// A mismatch in any replicate is as hard a failure as in a
			// single run.
			if err := res.MismatchError(); err != nil {
				fatal(err)
			}
			return
		}
		strategy, err := spec.Strategy()
		if err != nil {
			fatal(err)
		}
		cfg, err = strategy.Config()
		if err != nil {
			fatal(err)
		}
	} else {
		// The seed-stream knobs only exist on declarative scenarios; the ad
		// hoc flags describe a deterministic configuration.
		if seedSet || *replications > 1 || *mappingName != "" {
			fatal(fmt.Errorf("-seed, -replications and -mapping require -scenario; register a scenario (or use cmd/etcampaign) to replicate it"))
		}
		var err error
		cfg, err = adHocConfig(*meshSize, *algName, *batteryKind, *earQ,
			*controllers, *ctrlBattery, *planeName, *shards, *staleness, *recompute,
			*faultSpec, *concurrent, *maxCycles, *verify, *perNode)
		if err != nil {
			fatal(err)
		}
	}

	var timeline *trace.Timeline
	if *traceFile != "" {
		timeline = &trace.Timeline{}
		cfg.Observers = append(cfg.Observers, timeline)
	}
	var spanLog *trace.Spans
	if *spansFile != "" {
		// The flight recorder implements sim.PhaseObserver, so attaching it
		// turns the engine's span clock on. It is observational only: stdout
		// stays byte-identical to a run without it (guarded in CI).
		spanLog = &trace.Spans{}
		cfg.Observers = append(cfg.Observers, spanLog)
	}

	s, err := sim.New(cfg)
	if err != nil {
		fatal(err)
	}
	wallStart := time.Now()
	res := s.Run()
	wall := time.Since(wallStart)

	fmt.Println(res.String())
	summary := stats.NewTable("", "metric", "value")
	summary.AddRow("jobs completed", res.JobsCompleted)
	summary.AddRow("jobs lost", res.JobsLost)
	summary.AddRow("lifetime [cycles]", res.LifetimeCycles)
	summary.AddRow("TDMA frames", res.Frames)
	summary.AddRow("routing recomputations", res.RoutingRecomputes)
	summary.AddRow("recompute split (full/incremental)", fmt.Sprintf("%d/%d", res.FullRecomputes, res.IncrementalRecomputes))
	if len(res.ShardRecomputes) > 0 {
		summary.AddRow("control plane", fmt.Sprintf("%s (%d shards)", res.ControlPlane, len(res.ShardRecomputes)))
		summary.AddRow("per-shard recomputations", fmt.Sprint(res.ShardRecomputes))
	}
	summary.AddRow("deadlock reports", res.DeadlockReports)
	summary.AddRow("dead nodes", res.DeadNodes)
	if res.FaultsInjected > 0 || res.FaultsRecovered > 0 {
		summary.AddRow("faults injected / recovered", fmt.Sprintf("%d/%d", res.FaultsInjected, res.FaultsRecovered))
		summary.AddRow("links broken by wear", res.LinksBroken)
	}
	if res.RegionFailovers > 0 {
		summary.AddRow("region failovers", res.RegionFailovers)
		summary.AddRow("peak adopted nodes", res.PeakAdoptedNodes)
	}
	summary.AddRow("computation energy [pJ]", res.Energy.ComputationPJ)
	summary.AddRow("communication energy [pJ]", res.Energy.CommunicationPJ)
	summary.AddRow("control upload energy [pJ]", res.Energy.ControlUploadPJ)
	summary.AddRow("control download energy [pJ]", res.Energy.ControlDownloadPJ)
	summary.AddRow("controller energy [pJ]", res.Energy.ControllerPJ)
	summary.AddRow("wasted (stranded) energy [pJ]", res.Energy.WastedPJ)
	summary.AddRow("control overhead", fmt.Sprintf("%.1f%%", 100*res.Energy.ControlOverheadFraction()))
	if res.PayloadJobsVerified+res.PayloadMismatches > 0 {
		summary.AddRow("AES payloads verified", res.PayloadJobsVerified)
		summary.AddRow("AES payload mismatches", res.PayloadMismatches)
	}
	fmt.Print(summary.Render())

	if *perNode {
		nodes := stats.NewTable("per-node statistics", "node", "module", "ops", "relayed", "comp pJ", "comm pJ", "ctrl pJ", "dead")
		for _, n := range res.Nodes {
			nodes.AddRow(int(n.Node), n.Module, n.Operations, n.PacketsRelayed, n.ComputationPJ, n.CommunicationPJ, n.ControlPJ, n.Dead)
		}
		fmt.Print(nodes.Render())
	}

	if timeline != nil {
		if err := os.WriteFile(*traceFile, []byte(timeline.CSV()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %d frames written to %s\n", len(timeline.Rows()), *traceFile)
	}

	if spanLog != nil {
		if err := spanLog.WriteFile(*spansFile); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "spans: %d recorded, written to %s\n", spanLog.Len(), *spansFile)
	}

	// Wall-clock timing goes to stderr: it differs run to run, and stdout is
	// byte-diffed by the determinism guards.
	framesPerSec := 0.0
	if wall > 0 {
		framesPerSec = float64(res.Frames) / wall.Seconds()
	}
	fmt.Fprintf(os.Stderr, "etsim: %d frames simulated in %s (%.0f frames/s)\n",
		res.Frames, wall.Round(time.Microsecond), framesPerSec)

	if res.PayloadMismatches > 0 {
		fatal(fmt.Errorf("%d of %d verified payloads mismatched the reference cipher",
			res.PayloadMismatches, res.PayloadJobsVerified+res.PayloadMismatches))
	}
}

// applyMappingOverride rewrites the spec's mapping fields from a -mapping
// value: one of the registered strategy names, or explicit:<assignment> with
// the assignment in mapping.Explicit's comma-separated form (the form etopt
// prints). A typo lists the valid names instead of running something other
// than what the user asked for.
func applyMappingOverride(spec *scenario.Spec, value string) error {
	if assignment, ok := strings.CutPrefix(value, "explicit:"); ok {
		spec.Mapping = scenario.MappingExplicit
		spec.Assignment = assignment
		return nil
	}
	// The named strategies are the registry's mapping names minus explicit,
	// which is only reachable through the explicit:<assignment> form above.
	var named []string
	for _, name := range scenario.MappingNames() {
		if name != scenario.MappingExplicit {
			named = append(named, name)
		}
	}
	canonical := value
	if value == "rowmajor" {
		canonical = scenario.MappingRowMajor
	}
	if !slices.Contains(named, canonical) {
		return fmt.Errorf("unknown mapping %q (want %s, or explicit:<assignment> as printed by etopt)",
			value, strings.Join(named, ", "))
	}
	spec.Mapping = canonical
	// A named strategy replaces whatever explicit assignment the scenario
	// carried.
	spec.Assignment = ""
	return nil
}

// applyControlPlaneOverride rewrites the spec's control-plane fields from the
// -controlplane/-shards/-staleness flags. A -controlplane typo lists the valid
// names instead of running something other than what the user asked for;
// inconsistent combinations (e.g. -shards with the centralized plane) are
// rejected by the spec's eager validation in Strategy.
func applyControlPlaneOverride(spec *scenario.Spec, plane string, shards, staleness int, recompute string) error {
	if plane != "" {
		kind, err := controlplane.ParseKind(plane)
		if err != nil {
			return err
		}
		spec.ControlPlane = string(kind)
		// Overriding the architecture resets the sharding knobs to the new
		// plane's defaults; the flags below re-set them explicitly.
		spec.Shards = 0
		spec.StalenessFrames = 0
	}
	if shards > 0 {
		spec.Shards = shards
	}
	if staleness > 0 {
		spec.StalenessFrames = staleness
	}
	if recompute != "" {
		if _, err := controlplane.ParseRecompute(recompute); err != nil {
			return err
		}
		spec.Recompute = recompute
	}
	return nil
}

// conflictingFlags returns the names of the explicitly set flags that
// describe a configuration of their own and therefore cannot be combined
// with -scenario.
func conflictingFlags() []string {
	adHoc := map[string]bool{
		"mesh": true, "alg": true, "battery": true, "controllers": true,
		"controller-battery": true, "jobs": true, "ear-q": true,
	}
	var set []string
	flag.Visit(func(f *flag.Flag) {
		if adHoc[f.Name] {
			set = append(set, "-"+f.Name)
		}
	})
	return set
}

// adHocConfig builds a simulator configuration from the individual flags,
// preserving etsim's original flag-driven interface.
func adHocConfig(meshSize int, algName, batteryKind string, earQ float64,
	controllers int, ctrlBattery bool, plane string, shards, staleness int,
	recompute, faultSpec string, concurrent int, maxCycles int64, verify, perNode bool) (sim.Config, error) {
	cfg, err := sim.Default(meshSize)
	if err != nil {
		return sim.Config{}, err
	}
	switch algName {
	case "EAR", "ear":
		params := routing.DefaultEARParams()
		params.Q = earQ
		cfg.Algorithm = routing.EAR{Params: params}
	case "SDR", "sdr":
		cfg.Algorithm = routing.SDR{}
	default:
		return sim.Config{}, fmt.Errorf("unknown algorithm %q (want EAR or SDR)", algName)
	}
	switch batteryKind {
	case "thinfilm":
		cfg.NodeBattery = battery.DefaultThinFilmFactory()
	case "ideal":
		cfg.NodeBattery = battery.IdealFactory(battery.DefaultNominalPJ)
	default:
		return sim.Config{}, fmt.Errorf("unknown battery model %q (want thinfilm or ideal)", batteryKind)
	}
	cfg.Controllers = controllers
	if ctrlBattery {
		cfg.ControllerBattery = battery.DefaultThinFilmFactory()
	}
	kind, err := controlplane.ParseKind(plane)
	if err != nil {
		return sim.Config{}, err
	}
	if _, err := controlplane.ParseRecompute(recompute); err != nil {
		return sim.Config{}, err
	}
	cfg.Control = controlplane.Config{Kind: kind, Shards: shards, StalenessFrames: staleness, Recompute: recompute}
	if faultSpec != "" {
		fsp, err := faults.ParseSpec(faultSpec)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.Faults = fsp
	}
	cfg.ConcurrentJobs = concurrent
	cfg.MaxCycles = maxCycles
	cfg.CollectNodeStats = perNode
	if verify {
		cfg.Key = scenario.PaperKey()
	}
	return cfg, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "etsim:", err)
	os.Exit(1)
}
