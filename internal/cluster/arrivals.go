// Arrival production: the fleet's workload stream is drawn ahead of the
// global phase by one producer goroutine, on the CPU the serial global phase
// would otherwise leave idle, so the global phase only takes each arrival
// and routes it.
//
// The producer makes exactly the generator calls an inline draw would, in
// the same order, so IDs and draws do not depend on it. With each job it
// copies out the two fields routing reads, so the global phase routes an
// arrival from the chunk alone and never waits for the job's memory to
// arrive from the producer's CPU. Chunk buffers circulate between the two
// sides: the global phase takes a drawn chunk from ready, and when it has
// taken every job, hands the buffer back on spent carrying up to a chunk of
// finalized jobs, which the producer reinitializes in place before it draws
// into freshly allocated ones. The producer lives exactly as long as
// Fleet.Run, which stops it and waits for it to exit on every path.

package cluster

import (
	"goodenough/internal/job"
	"goodenough/internal/workload"
)

// chunkJobs is how many jobs the producer draws into one chunk: a channel
// hand-off per chunk is noise next to drawing 256 jobs.
const chunkJobs = 256

// lookahead is how many drawn chunks may wait for the global phase. While
// the shards run a barrier the global phase takes no arrivals, and the
// producer fills the look-ahead; after the barrier the global phase routes
// about as fast as the producer draws, so the look-ahead is the producer's
// head start, and once the global phase has caught up it waits on the
// producer chunk by chunk. Every job in the look-ahead is live: on a
// 1000-machine fleet (2 vCPUs), 8 chunks of 512 cut that wait by about
// half but raised the peak heap by about 1.5 MiB, and 4 chunks of 256
// kept it within half a MiB of drawing inline.
const lookahead = 4

// arrival is one drawn job with its release instant and remaining work,
// the fields the global phase posts and routes it by.
type arrival struct {
	job       *job.Job
	release   float64
	remaining float64
}

// producer draws the workload stream on its own goroutine, a chunk at a
// time, in stream order.
type producer struct {
	gen   *workload.Generator
	ready chan []arrival // drawn chunks in stream order; closed after the last
	spent chan []arrival // buffers handed back, carrying jobs to reinitialize
	stop  chan struct{}
	done  chan struct{}
}

// startProducer starts drawing gen's stream. The caller must close the
// producer.
func startProducer(gen *workload.Generator) *producer {
	const buffers = lookahead + 1 // the look-ahead plus the chunk being taken
	p := &producer{
		gen:   gen,
		ready: make(chan []arrival, lookahead),
		// spent can hold every buffer, so handing one back never blocks,
		// even after the producer has exited.
		spent: make(chan []arrival, buffers),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for range buffers {
		p.spent <- make([]arrival, 0, chunkJobs)
	}
	go p.run()
	return p
}

// run draws chunks into the buffers handed back until the stream ends or
// the producer is stopped.
func (p *producer) run() {
	defer close(p.done)
	for {
		var buf []arrival
		select {
		case buf = <-p.spent:
		case <-p.stop:
			return
		}
		buf, last := p.fill(buf)
		if len(buf) > 0 {
			select {
			case p.ready <- buf:
			case <-p.stop:
				return
			}
		}
		if last {
			close(p.ready)
			return
		}
	}
}

// fill draws the next chunk into buf: first into the finalized jobs it
// carries, then into fresh jobs allocated as one block. It returns the
// drawn arrivals and reports whether the stream ended.
func (p *producer) fill(buf []arrival) ([]arrival, bool) {
	if n := len(buf); n < chunkJobs {
		fresh := make([]job.Job, chunkJobs-n)
		for i := range fresh {
			buf = append(buf, arrival{job: &fresh[i]})
		}
	}
	for i := range buf {
		a := &buf[i]
		if p.gen.NextInto(a.job) == nil {
			return buf[:i], true
		}
		a.release, a.remaining = a.job.Release, a.job.Remaining()
	}
	return buf, false
}

// close stops the producer and waits for it to exit.
func (p *producer) close() {
	close(p.stop)
	<-p.done
}

// nextArrival takes the next arrival of the workload stream; ok is false
// once it is exhausted. A chunk's buffer goes back to the producer once
// every arrival in it is taken, carrying up to a chunk of the finalized
// jobs recycle kept.
func (f *Fleet) nextArrival() (a arrival, ok bool) {
	for f.next == len(f.chunk) {
		if f.chunk != nil {
			buf := f.chunk[:0]
			k := max(len(f.freed)-chunkJobs, 0)
			for _, j := range f.freed[k:] {
				buf = append(buf, arrival{job: j})
			}
			f.prod.spent <- buf
			clear(f.freed[k:])
			f.freed = f.freed[:k]
			f.chunk, f.next = nil, 0
		}
		if f.chunk, ok = <-f.prod.ready; !ok {
			return arrival{}, false
		}
	}
	a = f.chunk[f.next]
	f.next++
	return a, true
}

// recycle keeps a finalized job for the producer to reinitialize, while the
// stream still needs jobs.
func (f *Fleet) recycle(j *job.Job) {
	if !f.genDone {
		f.freed = append(f.freed, j)
	}
}
