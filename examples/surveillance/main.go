// Surveillance: the paper's motivating example for SVAQD (§3.3) — a camera
// at a crossroad whose vehicle traffic peaks at certain times of day, so the
// background detection probability is non-stationary. A fixed p0 (SVAQ) is
// wrong during the peaks or wrong between them; SVAQD tracks the rate and
// adjusts its critical values.
//
//	go run ./examples/surveillance
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/metrics"
	"svqact/internal/obs"
	"svqact/internal/synth"
	"svqact/internal/video"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run compares SVAQ and SVAQD over an hour of drifting traffic, then
// streams SVAQD clip by clip to show its background estimate tracking the
// traffic waves.
func run(w io.Writer) error {
	// One hour of footage. Cars pass continuously with 6x traffic during
	// recurring rush windows; the queried event is a person running while a
	// car is in view.
	const frames = 36_000 // 1 hour at 10 fps
	v, err := synth.Generate(synth.Script{
		ID:       "crossroad",
		Frames:   frames,
		FPS:      10,
		Geometry: video.DefaultGeometry,
		Seed:     11,
		Actions: []synth.ActionSpec{
			{Name: "running", MeanGapShots: 180, MeanDurShots: 25},
		},
		Objects: []synth.ObjectSpec{
			{
				Name:          "car",
				MeanGapFrames: 1800,
				MeanDurFrames: 120,
				// Traffic peaks: every 20 minutes, 6 minutes of 6x rate.
				Rate: synth.PeakRate(12_000, 3_600, 6),
			},
			{Name: "person", MeanDurFrames: 300, CorrelatedWith: "running", CorrelationProb: 0.95},
		},
	})
	if err != nil {
		return err
	}

	models := detect.NewModels(
		detect.NewObjectDetector(detect.YOLOv3, 3), // fast edge detector
		detect.NewActionRecognizer(detect.I3D, 3),
	)
	q := core.Query{Objects: []string{"person", "car"}, Action: "running"}
	truth := v.TruthClips(synth.QuerySpec{Action: q.Action, Objects: q.Objects}, 0)

	fmt.Fprintf(w, "query %s over one hour of drifting traffic\n\n", q)
	for _, mk := range []struct {
		name string
		make func(detect.Models, core.Config) (*core.Engine, error)
	}{
		{"SVAQ (static p0=1e-4)", core.NewSVAQ},
		{"SVAQD (adaptive)", core.NewSVAQD},
	} {
		eng, err := mk.make(models, core.DefaultConfig())
		if err != nil {
			return err
		}
		lat := obs.NewHistogram(nil)
		start := time.Now()
		res, err := eng.Run(context.Background(), v, q)
		if err != nil {
			return err
		}
		lat.ObserveDuration(time.Since(start))
		c := metrics.MatchSequences(res.Sequences, truth, metrics.DefaultIoU)
		fmt.Fprintf(w, "%-24s sequences=%-3d precision=%.2f recall=%.2f F1=%.2f\n",
			mk.name, res.Sequences.NumIntervals(), c.Precision(), c.Recall(), c.F1())
		car := res.Predicate("car")
		fmt.Fprintf(w, "%24s car background estimate: %.4f (k_crit=%d)\n",
			"", car.Background, car.Critical)
		fmt.Fprintf(w, "%24s latency: %s\n", "", lat.Summary())
	}

	// Show SVAQD's background estimate following the traffic waves.
	eng, err := core.NewSVAQD(models, core.DefaultConfig())
	if err != nil {
		return err
	}
	run, err := eng.NewRun(context.Background(), v, q)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nSVAQD car-background trajectory (one sample per 2 minutes):")
	step := 0
	for run.Step() {
		step++
		if step%24 == 0 { // 24 clips = 2 minutes
			car := run.Result().Predicate("car")
			bar := int(car.Background * 400)
			if bar > 60 {
				bar = 60
			}
			fmt.Fprintf(w, "  t=%4.1fmin  p=%.4f %s\n",
				float64(step)*50/10/60, car.Background, stars(bar))
		}
	}
	return nil
}

func stars(n int) string {
	s := make([]byte, n)
	for i := range s {
		s[i] = '*'
	}
	return string(s)
}
