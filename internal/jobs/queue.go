package jobs

import (
	"sync"
)

// fairQueue is the server's admission queue: one FIFO per tenant,
// drained round-robin across tenants so a tenant submitting a burst of
// jobs cannot starve the others, with a bounded per-tenant depth —
// overflow is the caller's 429. Re-queues (jobs recovered from the journal)
// bypass the bound: a job the server already accepted is never dropped.
type fairQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[string][]*job
	ring   []string // round-robin tenant order; tenants stay in the ring while non-empty
	next   int
	depth  int // per-tenant bound for client submissions
	total  int
	closed bool
}

func newFairQueue(depth int) *fairQueue {
	q := &fairQueue{queues: make(map[string][]*job), depth: depth}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a fresh submission, reporting false when the tenant's
// queue is full.
func (q *fairQueue) push(j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	if len(q.queues[j.tenant]) >= q.depth {
		return false
	}
	q.enqueueLocked(j)
	return true
}

// requeue enqueues a job the server already owns (one recovered from the
// journal); it never rejects.
func (q *fairQueue) requeue(j *job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.enqueueLocked(j)
}

func (q *fairQueue) enqueueLocked(j *job) {
	if len(q.queues[j.tenant]) == 0 {
		q.ring = append(q.ring, j.tenant)
	}
	q.queues[j.tenant] = append(q.queues[j.tenant], j)
	q.total++
	q.cond.Signal()
}

// pop blocks until a job is available (round-robin over tenants) or the
// queue is closed, returning nil on close. Pool workers loop on it.
func (q *fairQueue) pop() *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.total == 0 && !q.closed {
		q.cond.Wait()
	}
	// After close, jobs still queued are deliberately NOT handed out:
	// the drain path persists them for the next process instead.
	if q.closed || q.total == 0 {
		return nil
	}
	// The ring holds exactly the tenants with queued jobs, so the next
	// slot always hits.
	q.next %= len(q.ring)
	tenant := q.ring[q.next]
	jobs := q.queues[tenant]
	j := jobs[0]
	jobs = jobs[1:]
	q.total--
	if len(jobs) == 0 {
		delete(q.queues, tenant)
		q.ring = append(q.ring[:q.next], q.ring[q.next+1:]...)
		// next now points at the following tenant already; wrap handled
		// on the next pop.
	} else {
		q.queues[tenant] = jobs
		q.next++
	}
	return j
}

// remove takes a specific queued job out (cancellation), reporting
// whether it was found.
func (q *fairQueue) remove(j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	jobs := q.queues[j.tenant]
	for i, cand := range jobs {
		if cand != j {
			continue
		}
		jobs = append(jobs[:i], jobs[i+1:]...)
		q.total--
		if len(jobs) == 0 {
			delete(q.queues, j.tenant)
			for ri, t := range q.ring {
				if t == j.tenant {
					q.ring = append(q.ring[:ri], q.ring[ri+1:]...)
					if q.next > ri {
						q.next--
					}
					break
				}
			}
		} else {
			q.queues[j.tenant] = jobs
		}
		return true
	}
	return false
}

// close wakes every blocked pop with nil and rejects further pushes.
// Queued jobs stay in place — the drain path journals them as queued for
// the next process to recover.
func (q *fairQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// depths snapshots the per-tenant queue lengths (for /statusz).
func (q *fairQueue) depths() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int, len(q.queues))
	for t, jobs := range q.queues {
		out[t] = len(jobs)
	}
	return out
}

func (q *fairQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.total
}
