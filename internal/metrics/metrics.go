// Package metrics records per-run time series: the online quality, the
// instantaneous power draw, the execution mode, per-core speeds, energy,
// and queueing state sampled at scheduling events. The timeline is what
// turns a single Result number into an explainable trajectory — e.g.
// watching the compensation policy pull quality back up to Q_GE after a
// burst. (Structured per-event observability lives in internal/obs; the
// timeline is the thinned, fixed-cadence view.)
package metrics

import (
	"fmt"
	"io"
)

// Sample is one observation of the running system.
type Sample struct {
	// Time is the simulation time in seconds.
	Time float64
	// Quality is the cumulative achieved quality at that instant.
	Quality float64
	// Power is the instantaneous total dynamic power draw in watts.
	Power float64
	// Load is the total remaining target work queued on the cores.
	Load float64
	// Waiting is the number of unassigned jobs.
	Waiting int
	// AES reports the execution mode (true = Aggressive Energy Saving).
	AES bool
	// Speeds holds each core's instantaneous executing speed in GHz
	// (0 = idle). May be nil when the recorder does not track cores.
	Speeds []float64
	// Energy is the cumulative dynamic energy consumed so far in joules.
	Energy float64
}

// Timeline collects samples, thinning to at most one per `interval`
// simulated seconds (0 keeps every sample). The most recent thinned-away
// sample is retained as pending so Flush can preserve the trajectory's
// final point regardless of the interval.
type Timeline struct {
	interval float64
	samples  []Sample
	hasLast  bool
	lastTime float64

	pending    Sample
	hasPending bool
}

// NewTimeline builds a recorder with the given thinning interval.
func NewTimeline(interval float64) *Timeline {
	if interval < 0 {
		interval = 0
	}
	return &Timeline{interval: interval}
}

// Record appends a sample, unless it falls within the thinning interval of
// the previous one. A thinned sample is kept as the pending endpoint so a
// final Flush never loses the end of the run.
func (t *Timeline) Record(s Sample) {
	if t.hasLast && t.interval > 0 && s.Time < t.lastTime+t.interval {
		t.pending = s
		t.hasPending = true
		return
	}
	t.append(s)
}

// Flush appends the most recent thinned-away sample, if any — call at the
// end of a run so the final state is always retained regardless of the
// thinning interval.
func (t *Timeline) Flush() {
	if t.hasPending {
		t.append(t.pending)
	}
}

func (t *Timeline) append(s Sample) {
	t.samples = append(t.samples, s)
	t.hasLast = true
	t.lastTime = s.Time
	t.hasPending = false
}

// WriteCSV emits the full timeline. The fixed columns are
// time_s,quality,power_w,load_units,waiting,aes,energy_j; when the samples
// carry per-core speeds, one speed_cN_ghz column per core follows (the
// width is taken from the first sample).
func (t *Timeline) WriteCSV(w io.Writer) error {
	cores := 0
	if len(t.samples) > 0 {
		cores = len(t.samples[0].Speeds)
	}
	header := "time_s,quality,power_w,load_units,waiting,aes,energy_j"
	for i := 0; i < cores; i++ {
		header += fmt.Sprintf(",speed_c%d_ghz", i)
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, s := range t.samples {
		aes := 0
		if s.AES {
			aes = 1
		}
		if _, err := fmt.Fprintf(w, "%.6f,%.6f,%.3f,%.1f,%d,%d,%.3f",
			s.Time, s.Quality, s.Power, s.Load, s.Waiting, aes, s.Energy); err != nil {
			return err
		}
		for i := 0; i < cores; i++ {
			v := 0.0
			if i < len(s.Speeds) {
				v = s.Speeds[i]
			}
			if _, err := fmt.Fprintf(w, ",%.4f", v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
