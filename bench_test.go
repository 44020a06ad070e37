// Package repro_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation section (Sec 7) plus the
// ablation studies listed in DESIGN.md. Each benchmark runs the corresponding
// experiment and reports the headline quantities (jobs completed, ratios,
// overhead percentages) as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// prints the same rows/series the paper reports. cmd/etbench renders the same
// data as human-readable tables.
package repro_test

import (
	"flag"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/aes"
	"repro/internal/analytic"
	"repro/internal/app"
	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/routing"
	"repro/internal/topology"
)

// benchMeshSizes are the paper's mesh sizes; the heavier ablation benchmarks
// use a subset to keep a full -bench=. run in the tens of seconds.
var benchMeshSizes = []int{4, 5, 6, 7, 8}

// benchWorkers is the worker count every experiment sweep in this harness
// runs with: 0 (the default) means one worker per CPU. Override with
//
//	go test -bench=. -args -workers=1
//
// to benchmark the serial path.
var benchWorkers = flag.Int("workers", 0, "worker goroutines per experiment sweep (0 = one per CPU)")

// benchParallelism is the option threaded through every sweep call below.
func benchParallelism() experiments.Option { return experiments.WithWorkers(*benchWorkers) }

// BenchmarkFig2_DischargeCurve regenerates the thin-film battery discharge
// curve of Fig 2 and reports the plateau and knee voltages.
func BenchmarkFig2_DischargeCurve(b *testing.B) {
	var points []experiments.Fig2Point
	for i := 0; i < b.N; i++ {
		points = experiments.Fig2(20)
	}
	var plateau, knee float64
	for _, p := range points {
		if p.DepthOfDischarge <= 0.5 {
			plateau = p.Voltage
		}
		if p.DepthOfDischarge <= 0.95 {
			knee = p.Voltage
		}
	}
	b.ReportMetric(plateau, "V@50%DoD")
	b.ReportMetric(knee, "V@95%DoD")
	b.ReportMetric(float64(len(points)), "points")
}

// BenchmarkFig7_EARvsSDR regenerates Fig 7: the number of completed jobs
// under EAR and SDR for every mesh size, and the EAR/SDR gain.
func BenchmarkFig7_EARvsSDR(b *testing.B) {
	for _, n := range benchMeshSizes {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			var rows []experiments.Fig7Row
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = experiments.Fig7([]int{n}, benchParallelism())
				if err != nil {
					b.Fatal(err)
				}
			}
			r := rows[0]
			b.ReportMetric(float64(r.EARJobs), "EAR-jobs")
			b.ReportMetric(float64(r.SDRJobs), "SDR-jobs")
			b.ReportMetric(r.Gain, "EAR/SDR")
		})
	}
}

// BenchmarkFig7_ControlOverhead reports the control-information overhead
// percentages quoted in the Sec 7.1 text (2.8 % .. 11.6 % for 4x4 .. 8x8).
func BenchmarkFig7_ControlOverhead(b *testing.B) {
	for _, n := range benchMeshSizes {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			var overhead float64
			for i := 0; i < b.N; i++ {
				strategy, err := core.EAR(n)
				if err != nil {
					b.Fatal(err)
				}
				res, err := strategy.Simulate()
				if err != nil {
					b.Fatal(err)
				}
				overhead = res.Energy.ControlOverheadFraction()
			}
			b.ReportMetric(100*overhead, "overhead-%")
		})
	}
}

// BenchmarkTable2_EARvsUpperBound regenerates Table 2: EAR with the ideal
// battery model against the Theorem-1 upper bound.
func BenchmarkTable2_EARvsUpperBound(b *testing.B) {
	for _, n := range benchMeshSizes {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			var rows []experiments.Table2Row
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = experiments.Table2([]int{n}, benchParallelism())
				if err != nil {
					b.Fatal(err)
				}
			}
			r := rows[0]
			b.ReportMetric(float64(r.EARJobs), "EAR-jobs")
			b.ReportMetric(r.UpperBound, "J*")
			b.ReportMetric(100*r.Achieved, "achieved-%")
		})
	}
}

// BenchmarkFig8_ControllerFailures regenerates Fig 8: jobs completed versus
// the number of battery-powered controllers for every mesh size.
func BenchmarkFig8_ControllerFailures(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		for _, c := range experiments.PaperControllerCounts() {
			b.Run(fmt.Sprintf("%dx%d/%dctrl", n, n, c), func(b *testing.B) {
				var jobs int
				for i := 0; i < b.N; i++ {
					rows, err := experiments.Fig8([]int{n}, []int{c}, benchParallelism())
					if err != nil {
						b.Fatal(err)
					}
					jobs = rows[0].Jobs
				}
				b.ReportMetric(float64(jobs), "jobs")
			})
		}
	}
}

// BenchmarkFig8_GridScaling runs the full Fig 8 (mesh size × controller
// count) grid — the heaviest sweep of the evaluation — under increasing
// worker counts. Comparing the workers=1 and workers=GOMAXPROCS lines
// measures the wall-clock speedup of the runner.Pool fan-out; on a 4-core
// machine the parallel grid should finish at least ~2x faster than the
// serial one.
func BenchmarkFig8_GridScaling(b *testing.B) {
	sizes := []int{4, 5, 6}
	counts := experiments.PaperControllerCounts()
	workerCounts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		workerCounts = append(workerCounts, p)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Fig8(sizes, counts, experiments.WithWorkers(workers))
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != len(sizes)*len(counts) {
					b.Fatalf("got %d rows", len(rows))
				}
			}
			b.ReportMetric(float64(len(sizes)*len(counts)), "cells")
		})
	}
}

// BenchmarkTheorem1_UpperBound evaluates Eq 2 / Eq 3 for every mesh size (the
// J* column of Table 2) and reports the bound.
func BenchmarkTheorem1_UpperBound(b *testing.B) {
	application := app.AES128()
	line := energy.PaperTransmissionLine()
	for _, n := range benchMeshSizes {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			var bound analytic.Bound
			for i := 0; i < b.N; i++ {
				var err error
				bound, err = analytic.MeshUpperBound(application, line, topology.DefaultSpacingCM,
					battery.DefaultNominalPJ, n*n)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(bound.Jobs, "J*")
		})
	}
}

// BenchmarkAblation_EARWeightQ sweeps the EAR weighting base Q (ablation A1).
func BenchmarkAblation_EARWeightQ(b *testing.B) {
	for _, q := range []float64{1, 2, 4} {
		b.Run(fmt.Sprintf("Q=%g", q), func(b *testing.B) {
			var jobs int
			for i := 0; i < b.N; i++ {
				rows, err := experiments.AblationEARWeight([]int{5}, []float64{q}, benchParallelism())
				if err != nil {
					b.Fatal(err)
				}
				jobs = rows[0].Jobs
			}
			b.ReportMetric(float64(jobs), "jobs")
		})
	}
}

// BenchmarkAblation_Mapping compares mapping strategies (ablation A2).
func BenchmarkAblation_Mapping(b *testing.B) {
	var rows []experiments.AblationMappingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationMapping([]int{5}, benchParallelism())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Jobs), r.Strategy+"-jobs")
	}
}

// BenchmarkAblation_BatteryModel quantifies the battery model's contribution
// to the EAR/SDR gap (ablation A3).
func BenchmarkAblation_BatteryModel(b *testing.B) {
	var rows []experiments.AblationBatteryRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationBattery([]int{5}, benchParallelism())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Jobs), r.Battery+"/"+r.Algorithm)
	}
}

// BenchmarkAblation_Concurrency exercises the deadlock-recovery mechanism
// with multiple jobs in flight (ablation A4).
func BenchmarkAblation_Concurrency(b *testing.B) {
	for _, jobs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%djobs", jobs), func(b *testing.B) {
			var completed, deadlocks int
			for i := 0; i < b.N; i++ {
				rows, err := experiments.AblationConcurrency([]int{5}, []int{jobs}, benchParallelism())
				if err != nil {
					b.Fatal(err)
				}
				completed = rows[0].JobsCompleted
				deadlocks = rows[0].DeadlockReports
			}
			b.ReportMetric(float64(completed), "jobs")
			b.ReportMetric(float64(deadlocks), "deadlocks")
		})
	}
}

// BenchmarkAblation_LinkFailures measures how gracefully EAR degrades when a
// fraction of the woven interconnects has failed (ablation A5).
func BenchmarkAblation_LinkFailures(b *testing.B) {
	for _, fraction := range []float64{0, 0.2} {
		b.Run(fmt.Sprintf("failed=%.0f%%", 100*fraction), func(b *testing.B) {
			var ear, sdr int
			for i := 0; i < b.N; i++ {
				rows, err := experiments.AblationLinkFailures([]int{5}, []float64{fraction}, benchParallelism())
				if err != nil {
					b.Fatal(err)
				}
				ear, sdr = rows[0].EARJobs, rows[0].SDRJobs
			}
			b.ReportMetric(float64(ear), "EAR-jobs")
			b.ReportMetric(float64(sdr), "SDR-jobs")
		})
	}
}

// --- micro-benchmarks of the main substrates ---

// BenchmarkMicro_AESEncryptBlock measures the reference cipher on the
// zero-allocation Encrypt path the engine's payload verification uses.
func BenchmarkMicro_AESEncryptBlock(b *testing.B) {
	c, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		b.Fatal(err)
	}
	block := make([]byte, aes.BlockSize)
	out := make([]byte, aes.BlockSize)
	b.SetBytes(aes.BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encrypt(out, block); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_ShortestPaths8x8 measures one controller routing
// computation (phases 1-3, phase 2 the per-destination shortest-path pass)
// on the largest mesh of the paper, with a fresh workspace per compute.
func BenchmarkMicro_ShortestPaths8x8(b *testing.B) {
	mesh := topology.MustMesh(8, 8, 1)
	state := &routing.SystemState{Graph: mesh.Graph, Levels: 8, Status: make([]routing.NodeStatus, mesh.Size())}
	for _, n := range mesh.Nodes() {
		state.Status[n.ID] = routing.NodeStatus{Alive: true, BatteryLevel: int(n.ID) % 8}
	}
	application := app.AES128()
	dests := map[app.ModuleID][]topology.NodeID{}
	for _, m := range application.Modules {
		for _, node := range mesh.Nodes() {
			if int(node.ID)%3 == int(m.ID)-1 {
				dests[m.ID] = append(dests[m.ID], node.ID)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routing.ComputeInto(routing.NewWorkspace(), routing.NewEAR(), state, dests, nil)
	}
}

// BenchmarkMicro_ComputeInto8x8 is the same controller computation as
// BenchmarkMicro_ShortestPaths8x8 but through a reused routing.Workspace —
// the steady-state path the simulator drives every TDMA frame. It must
// report 0 allocs/op.
func BenchmarkMicro_ComputeInto8x8(b *testing.B) {
	mesh := topology.MustMesh(8, 8, 1)
	state := &routing.SystemState{Graph: mesh.Graph, Levels: 8, Status: make([]routing.NodeStatus, mesh.Size())}
	for _, n := range mesh.Nodes() {
		state.Status[n.ID] = routing.NodeStatus{Alive: true, BatteryLevel: int(n.ID) % 8}
	}
	application := app.AES128()
	dests := map[app.ModuleID][]topology.NodeID{}
	for _, m := range application.Modules {
		for _, node := range mesh.Nodes() {
			if int(node.ID)%3 == int(m.ID)-1 {
				dests[m.ID] = append(dests[m.ID], node.ID)
			}
		}
	}
	ws := routing.NewWorkspace()
	var alg routing.Algorithm = routing.NewEAR()
	var prev *routing.Tables
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prev = routing.ComputeInto(ws, alg, state, dests, prev).Tables
	}
}

// BenchmarkMicro_ThinFilmBattery measures the discrete-time battery model.
func BenchmarkMicro_ThinFilmBattery(b *testing.B) {
	cell := battery.NewDefaultThinFilm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cell.Draw(10); err != nil {
			cell = battery.NewDefaultThinFilm()
		}
		cell.Rest(1000)
	}
}

// BenchmarkMicro_Simulate4x4 measures one complete et_sim run of the default
// 4x4 scenario.
func BenchmarkMicro_Simulate4x4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		strategy, err := core.EAR(4)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := strategy.Simulate(); err != nil {
			b.Fatal(err)
		}
	}
}
