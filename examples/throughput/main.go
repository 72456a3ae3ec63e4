// Throughput demonstrates the two throughput stories of the repository:
//
//  1. The layout study of fig. 11c — long-range logical CNOTs routed
//     through the ancilla channels of a 100-qubit layout, with defect
//     strikes enlarging patches. Q3DE's fixed layout lets enlargements
//     swallow the channels; Surf-Deformer's d+Δd spacing keeps them open.
//  2. The Monte-Carlo engine — the same d=7 memory experiment decoded at
//     Workers = 1, 4 and NumCPU, showing shots/second scaling with the
//     failure counts staying bit-identical (parallelism is purely a
//     throughput knob; the per-shard RNG streams pin the statistics).
//
// This example drives the internal engines directly (it lives in the same
// module), showing the machinery beneath the public API.
//
//	go run ./examples/throughput
package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"surfdeformer/internal/decoder"
	"surfdeformer/internal/defect"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/layout"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/route"
	"surfdeformer/internal/sim"

	deformcode "surfdeformer/internal/code"
)

func main() {
	const gridSide = 10 // 100 logical qubits
	const d = 21
	dm := defect.Paper()
	deltaD := layout.ChooseDeltaD(dm, d, layout.DefaultAlphaBlock)
	fmt.Printf("layout: %dx%d logical qubits, d=%d, Δd=%d (Eq. 1)\n\n", gridSide, gridSide, d, deltaD)

	rng := rand.New(rand.NewSource(7))
	// A workload of 60 long-range CNOTs across the grid.
	var ops []route.CNOT
	for i := 0; i < 60; i++ {
		a := rng.Intn(gridSide * gridSide)
		b := (a + 13 + 7*i) % (gridSide * gridSide)
		if a == b {
			b = (b + 1) % (gridSide * gridSide)
		}
		ops = append(ops, route.CNOT{Control: a, Target: b})
	}

	fmt.Printf("%-14s %-22s %-12s %-10s\n", "defect rate", "scheme", "throughput", "stalled")
	for _, rate := range []float64{0, 1e-4, 2e-4} {
		for _, scheme := range []layout.Scheme{layout.SurfDeformer, layout.Q3DE} {
			grid := route.NewGrid(gridSide, gridSide)
			lambda := rate * float64(2*d*d) * 2.0 // 2 s task-set exposure
			for cell := 0; cell < gridSide*gridSide; cell++ {
				strikes := 0
				// Poisson by inversion.
				l, p := math.Exp(-lambda), 1.0
				for {
					p *= rng.Float64()
					if p <= l {
						break
					}
					strikes++
				}
				switch scheme {
				case layout.Q3DE:
					if strikes > 0 {
						grid.SetBlocked(cell, true) // doubling blocks channels
					}
				case layout.SurfDeformer:
					if strikes > deltaD/(2*dm.Radius) {
						grid.SetBlocked(cell, true) // growth exceeded the reserve
					}
				}
			}
			res := grid.RunTasks(ops, 600)
			fmt.Printf("%-14.1e %-22s %-12.3f %-10v\n", rate, scheme, res.Throughput, res.Stalled)
		}
	}
	fmt.Println("\nQ3DE loses throughput as soon as enlargements appear; the Δd reserve keeps")
	fmt.Println("Surf-Deformer's channels open at the same defect rates (fig. 11c / fig. 10).")

	decodeThroughput()
}

// decodeThroughput runs the same d=7 memory experiment at increasing
// worker counts on the Monte-Carlo engine.
func decodeThroughput() {
	const (
		d      = 7
		rounds = 6
		shots  = 40000
		p      = 2e-3
	)
	c := deformcode.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, d))
	fmt.Printf("\nMonte-Carlo engine: d=%d memory-Z, %d rounds, %d shots, p=%.0e\n\n", d, rounds, shots, p)
	fmt.Printf("%-10s %-12s %-12s %-12s\n", "workers", "failures", "shots/sec", "speedup")
	var base float64
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		start := time.Now()
		res, _, err := sim.RunMemory(c, noise.Uniform(p), nil, sim.RunOptions{
			Rounds:  rounds,
			Basis:   lattice.ZCheck,
			Factory: decoder.UnionFindFactory(),
			Shots:   shots,
			Workers: workers,
			Seed:    1,
		})
		if err != nil {
			fmt.Println("engine error:", err)
			return
		}
		rate := float64(shots) / time.Since(start).Seconds()
		if base == 0 {
			base = rate
		}
		fmt.Printf("%-10d %-12d %-12.0f %.2fx\n", workers, res.Failures, rate, rate/base)
	}
	fmt.Println("\nIdentical failure counts at every worker count: the engine's sharded RNG")
	fmt.Println("streams make parallelism a pure throughput knob.")
}
