package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/serve"
)

// The expected outputs of the default seed, recorded by `perfbench -record`.
//
//go:embed testdata
var goldenFS embed.FS

// goldenOps is how many serve-mix operations of the default seed have
// committed results; a run that gets further checks the rest with the
// invariants only.
const goldenOps = 48000

func goldenFile(name string) (string, error) {
	b, err := goldenFS.ReadFile("testdata/" + name)
	return string(b), err
}

// goldenMap reads a committed "key<TAB>value" file.
func goldenMap(name string) (map[string]string, error) {
	s, err := goldenFile(name)
	if err != nil {
		return nil, err
	}
	m := map[string]string{}
	for _, line := range strings.Split(s, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", name, line)
		}
		m[k] = v
	}
	return m, nil
}

// recordAll re-records every committed expectation for the default seed
// into perfbench/testdata, computing each result directly through
// scenario, campaign and experiments (never through the serving path the
// gate checks).
func recordAll() error {
	dir := filepath.Join("perfbench", "testdata")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name, header string, lines []string) error {
		body := header + strings.Join(lines, "\n") + "\n"
		fmt.Printf("record: %s (%d entries)\n", name, len(lines))
		return os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644)
	}

	// paper-sweep: the tables byte for byte, and every simulation.
	exps := sweepExperiments()
	var tables strings.Builder
	opt := experiments.WithWorkers(0)
	jobsBySim := map[string]int{}
	for _, e := range exps {
		out, jobs, err := e.run(opt)
		if err != nil {
			return err
		}
		tables.WriteString(out)
		if len(jobs) != len(e.specs) {
			return fmt.Errorf("%s: %d rows for %d specs", e.name, len(jobs), len(e.specs))
		}
		for i, j := range jobs {
			jobsBySim[fmt.Sprintf("%s/%d", e.name, i)] = j
		}
	}
	// The experiment list copies etbench's grids; fail if it has drifted.
	cmd := exec.Command("go", "run", "./cmd/etbench", "-experiment", "all")
	cmd.Stderr = os.Stderr
	etbench, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go run ./cmd/etbench: %w", err)
	}
	if string(etbench) != tables.String() {
		return fmt.Errorf("the sweep's tables differ from `go run ./cmd/etbench -experiment all` output; update sweepExperiments")
	}
	if err := os.WriteFile(filepath.Join(dir, "paper-sweep.tables.txt"), []byte(tables.String()), 0o644); err != nil {
		return err
	}
	var lines []string
	for _, s := range sweepSims(exps) {
		res, err := s.sp.Simulate()
		if err != nil {
			return err
		}
		if res.JobsCompleted != jobsBySim[s.key] {
			return fmt.Errorf("%s: the spec list disagrees with the experiment (%d vs %d jobs)",
				s.key, res.JobsCompleted, jobsBySim[s.key])
		}
		lines = append(lines, s.key+"\t"+summary(res))
	}
	if err := write("paper-sweep.sims.tsv",
		"# key\tjobs\tlost\tframes\treason\tenergy_pJ (etbench -experiment all simulations)\n", lines); err != nil {
		return err
	}

	// big-mesh.
	sp, err := bigMeshSpec(defaultSeed)
	if err != nil {
		return err
	}
	res, err := sp.Simulate()
	if err != nil {
		return err
	}
	if err := write("big-mesh.tsv", "# seed\tjobs\tlost\tframes\treason\tenergy_pJ\n",
		[]string{strconv.Itoa(defaultSeed) + "\t" + summary(res)}); err != nil {
		return err
	}

	// serve-mix: the warmed hot set and hot campaigns, and every new spec
	// and campaign in the first goldenOps operations.
	m, err := newServeMix(defaultSeed)
	if err != nil {
		return err
	}
	lines = lines[:0]
	for i, op := range m.hot {
		res, err := op.spec.Simulate()
		if err != nil {
			return err
		}
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		lines = append(lines, fmt.Sprintf("hot/%d\t%s\t%s", i, summary(res), digest(b)))
	}
	for i, op := range m.campaigns {
		res, err := campaign.Run(*op.camp, campaign.WithWorkers(0))
		if err != nil {
			return err
		}
		lines = append(lines, fmt.Sprintf("hotcamp/%d\t%s", i, campaignSummary(campaignWire(res))))
	}
	for i := 0; i < goldenOps; i++ {
		op, err := m.op(i)
		if err != nil {
			return err
		}
		switch op.kind {
		case opFresh, opJoin:
			res, err := op.spec.Simulate()
			if err != nil {
				return err
			}
			b, err := json.Marshal(res)
			if err != nil {
				return err
			}
			lines = append(lines, fmt.Sprintf("%d\t%s\t%s", i, summary(res), digest(b)))
		case opCampaign:
			res, err := campaign.Run(*op.camp, campaign.WithWorkers(0))
			if err != nil {
				return err
			}
			lines = append(lines, fmt.Sprintf("%d\t%s", i, campaignSummary(campaignWire(res))))
		}
	}
	return write("serve-mix.tsv",
		"# op (hot/i, hotcamp/i: the warmed hot set)\tjobs\tlost\tframes\treason\tenergy_pJ\tsha256[:12] of the response (or a campaign's means)\n", lines)
}

// campaignWire extracts the fields campaignSummary reads from a campaign
// result, in the shape of the served summary.
func campaignWire(res *campaign.Result) serve.CampaignSummary {
	cs := serve.CampaignSummary{Replications: res.Spec.Replications}
	for _, m := range res.Metrics() {
		if slices.Contains([]string{"jobs completed", "TDMA frames", "energy consumed [pJ]"}, m.Name) {
			cs.Metrics = append(cs.Metrics, serve.MetricSummary{Name: m.Name, Count: m.Summary.Count(), Mean: m.Summary.Mean()})
		}
	}
	return cs
}
