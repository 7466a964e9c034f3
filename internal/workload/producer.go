// Arrival production: a run's workload stream is drawn ahead of its event
// loop by one producer goroutine, on a CPU the loop would otherwise leave
// idle, so the loop only takes each arrival. Both run loops take their
// arrivals this way: sched.Runner for one machine, and cluster.Fleet, whose
// serial global phase then only routes.
//
// The producer makes exactly the source calls an inline draw would, in the
// same order, so IDs and draws do not depend on it. With each job it copies
// out the two fields routing reads, so a fleet routes an arrival from the
// chunk alone and never waits for the job's memory to arrive from the
// producer's CPU. Chunk buffers circulate between the two sides: the
// consumer takes a drawn chunk from ready, and when it has taken every job,
// hands the buffer back on spent carrying up to a chunk of finalized jobs,
// which the producer reinitializes in place before it draws into freshly
// allocated ones. The owner starts the producer when its run starts, and
// closes it on every return path.

package workload

import "goodenough/internal/job"

// maxChunkJobs is the most jobs the producer draws into one chunk: a channel
// hand-off per chunk is noise next to drawing 256 jobs.
const maxChunkJobs = 256

// lookahead is how many drawn chunks may wait for the consumer. While a
// fleet's shards run a barrier its global phase takes no arrivals, and the
// producer fills the look-ahead; after the barrier the global phase routes
// about as fast as the producer draws, so the look-ahead is the producer's
// head start, and once the global phase has caught up it waits on the
// producer chunk by chunk. Every job in the look-ahead is live: on a
// 1000-machine fleet (2 vCPUs), 8 chunks of 512 cut that wait by about
// half but raised the peak heap by about 1.5 MiB, and 4 chunks of 256
// kept it within half a MiB of drawing inline.
const lookahead = 4

// chunkSize is the jobs per chunk for a stream of about expected jobs:
// small enough that the look-ahead and the chunk being taken hold the whole
// stream, so a short run allocates no more jobs than it draws, and at most
// maxChunkJobs.
func chunkSize(expected int) int {
	return max(min(maxChunkJobs, (expected+lookahead)/(lookahead+1)), 1)
}

// Arrival is one drawn job with its release instant and remaining work,
// the fields a run posts and routes it by.
type Arrival struct {
	Job       *job.Job
	Release   float64
	Remaining float64
}

// Producer draws a Source on its own goroutine, a chunk at a time, in
// stream order. The consumer takes arrivals with Next and hands back jobs
// it has finalized with Recycle, both from one goroutine, and must Close
// the producer.
type Producer struct {
	ready chan []Arrival // drawn chunks in stream order; closed after the last
	spent chan []Arrival // buffers handed back, carrying jobs to reinitialize
	stop  chan struct{}
	done  chan struct{}

	// The consumer's side: the jobs per chunk, the drawn chunk being taken
	// from next on, the finalized jobs not yet handed back, and whether the
	// stream ended.
	chunkJobs int
	chunk     []Arrival
	next      int
	freed     []*job.Job
	ended     bool
}

// StartProducer starts drawing src's stream, in chunks sized from its
// expected job count. The caller must close the producer.
func StartProducer(src Source) *Producer {
	const buffers = lookahead + 1 // the look-ahead plus the chunk being taken
	p := &Producer{
		ready: make(chan []Arrival, lookahead),
		// spent can hold every buffer, so handing one back never blocks,
		// even after the producer has exited.
		spent:     make(chan []Arrival, buffers),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		chunkJobs: chunkSize(src.Expected()),
	}
	for range buffers {
		p.spent <- make([]Arrival, 0, p.chunkJobs)
	}
	go p.run(src, p.chunkJobs)
	return p
}

// run draws chunks of src into the buffers handed back until the stream
// ends or the producer is stopped. It takes the source and the chunk size
// as arguments, not from p: the consumer writes p on every arrival, and a
// read of p on every draw would pull its cache line to the producer's CPU
// and back.
func (p *Producer) run(src Source, chunkJobs int) {
	defer close(p.done)
	for {
		var buf []Arrival
		select {
		case buf = <-p.spent:
		case <-p.stop:
			return
		}
		buf, last := fill(src, buf, chunkJobs)
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

// fill draws the next chunk of src into buf: first into the finalized jobs
// it carries, then into fresh jobs allocated as one block, up to chunkJobs.
// It returns the drawn arrivals and reports whether the stream ended.
func fill(src Source, buf []Arrival, chunkJobs int) ([]Arrival, bool) {
	if n := len(buf); n < chunkJobs {
		fresh := make([]job.Job, chunkJobs-n)
		for i := range fresh {
			buf = append(buf, Arrival{Job: &fresh[i]})
		}
	}
	for i := range buf {
		a := &buf[i]
		if src.NextInto(a.Job) == nil {
			return buf[:i], true
		}
		a.Release, a.Remaining = a.Job.Release, a.Job.Remaining()
	}
	return buf, false
}

// Close stops the producer and waits for it to exit.
func (p *Producer) Close() {
	close(p.stop)
	<-p.done
}

// Next takes the next arrival of the stream; ok is false once it is
// exhausted. A chunk's buffer goes back to the producer once every arrival
// in it is taken, carrying up to a chunk of the finalized jobs Recycle
// kept.
func (p *Producer) Next() (a Arrival, ok bool) {
	for p.next == len(p.chunk) {
		if p.chunk != nil {
			buf := p.chunk[:0]
			k := max(len(p.freed)-p.chunkJobs, 0)
			for _, j := range p.freed[k:] {
				buf = append(buf, Arrival{Job: j})
			}
			p.spent <- buf
			clear(p.freed[k:])
			p.freed = p.freed[:k]
			p.chunk, p.next = nil, 0
		}
		if p.chunk, ok = <-p.ready; !ok {
			p.ended = true
			return Arrival{}, false
		}
	}
	a = p.chunk[p.next]
	p.next++
	return a, true
}

// Recycle keeps a job the consumer has finalized, and no longer reads, for
// the producer to reinitialize, while the stream still needs jobs.
func (p *Producer) Recycle(j *job.Job) {
	if !p.ended {
		p.freed = append(p.freed, j)
	}
}
