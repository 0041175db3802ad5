// Pareto front explorer: prints the desirable-configuration set (paper
// Fig. 8) of AlexNet's conv2 forward kernel, rendering a small ASCII
// time-vs-workspace scatter so the trade-off curve is visible in a
// terminal.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/tensor"
)

func main() {
	batch := flag.Int("batch", 256, "mini-batch size")
	limitMiB := flag.Int64("ws", 120, "workspace limit (MiB)")
	devName := flag.String("device", "p100", "device")
	flag.Parse()

	dev, err := device.ByName(*devName)
	if err != nil {
		log.Fatal(err)
	}
	cs := tensor.ConvShape{
		In:     tensor.Shape{N: *batch, C: 64, H: 27, W: 27},
		Filt:   tensor.Filter{K: 192, C: 64, R: 5, S: 5},
		Params: tensor.ConvParams{PadH: 2, PadW: 2, StrideH: 1, StrideW: 1},
	}
	b := core.NewBencher(cudnn.NewHandle(dev, cudnn.ModelOnlyBackend), nil)
	front, err := core.DesirableSet(b, core.Kernel{Op: conv.Forward, Shape: cs},
		*limitMiB<<20, core.PolicyAll)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("conv2 forward desirable configurations (%s, N=%d, %d MiB): %d points\n\n",
		dev.Name, *batch, *limitMiB, len(front))

	// ASCII scatter: x = workspace, y = time.
	const width, height = 64, 16
	minT, maxT := front[0].Time, front[len(front)-1].Time
	var maxW int64
	for _, p := range front {
		if p.Workspace > maxW {
			maxW = p.Workspace
		}
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, p := range front {
		x := int(float64(p.Workspace) / float64(maxW+1) * float64(width-1))
		y := 0
		if maxT > minT {
			y = int(float64(p.Time-minT) / float64(maxT-minT) * float64(height-1))
		}
		grid[y][x] = '*'
	}
	fmt.Printf("time %8v ^\n", minT.Round(time.Microsecond))
	for _, row := range grid {
		fmt.Printf("              |%s\n", string(row))
	}
	fmt.Printf("time %8v +%s> ws 0..%.0f MiB\n\n", maxT.Round(time.Microsecond),
		strings.Repeat("-", width), float64(maxW)/(1<<20))

	for _, p := range front {
		fmt.Printf("  %10v  %8.1f MiB  %v\n", p.Time, float64(p.Workspace)/(1<<20), p.Config)
	}
}
