package obs_test

import (
	"fmt"

	"goodenough/internal/obs"
)

// modeCounter is a small custom observer: it counts AES↔BQ mode switches
// and remembers the last mode.
type modeCounter struct {
	switches int
	lastAES  bool
}

func (m *modeCounter) Observe(e obs.Event) {
	if e.Type == obs.EventModeSwitch {
		m.switches++
		m.lastAES = e.Flag
	}
}

// ExampleEmit feeds a custom observer. Attach any Observer to a run with
// sched.Runner.SetObserver (or combine several with obs.Multi); here the
// events are fed directly for a deterministic example.
func ExampleEmit() {
	var counter modeCounter

	// What a runner would emit as the compensation policy toggles modes.
	stream := []obs.Event{
		{Time: 0.5, Type: obs.EventModeSwitch, Core: -1, Job: -1, Flag: false}, // quality dipped: BQ
		{Time: 2.0, Type: obs.EventModeSwitch, Core: -1, Job: -1, Flag: true},  // recovered: AES
		{Time: 3.5, Type: obs.EventJobArrive, Core: -1, Job: 17, Value: 400},   // ignored by this observer
		{Time: 4.0, Type: obs.EventModeSwitch, Core: -1, Job: -1, Flag: false},
	}
	for _, e := range stream {
		obs.Emit(&counter, e)
	}

	fmt.Printf("mode switches: %d, in AES: %v\n", counter.switches, counter.lastAES)
	// Output:
	// mode switches: 3, in AES: false
}
