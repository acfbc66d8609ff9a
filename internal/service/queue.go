package service

// jobQueue is the FIFO-with-priorities admission queue: higher Priority
// first, submission order within a class. Admission is strictly in order —
// the head blocks until the rank budget can hold it, and no later job may
// jump past it even if it would fit (head-of-line blocking is the price of
// a predictable admission order; priorities exist to express urgency).
type jobQueue struct {
	items []*Job // invariant: sorted by (Priority desc, Seq asc)
}

// push inserts the job at its ordered position.
func (q *jobQueue) push(j *Job) {
	at := len(q.items)
	for i, it := range q.items {
		if j.Spec.Priority > it.Spec.Priority {
			at = i
			break
		}
	}
	q.items = append(q.items, nil)
	copy(q.items[at+1:], q.items[at:])
	q.items[at] = j
}

// head returns the next job to admit, or nil when the queue is empty.
func (q *jobQueue) head() *Job {
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0]
}

// pop removes and returns the head.
func (q *jobQueue) pop() *Job {
	j := q.items[0]
	copy(q.items, q.items[1:])
	q.items[len(q.items)-1] = nil
	q.items = q.items[:len(q.items)-1]
	return j
}

// remove deletes the job with the given ID, reporting whether it was queued.
func (q *jobQueue) remove(id string) bool {
	for i, it := range q.items {
		if it.ID == id {
			copy(q.items[i:], q.items[i+1:])
			q.items[len(q.items)-1] = nil
			q.items = q.items[:len(q.items)-1]
			return true
		}
	}
	return false
}

// len reports the queued-job count.
func (q *jobQueue) len() int { return len(q.items) }
