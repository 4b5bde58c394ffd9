package server

import (
	"fmt"
	"sync"
)

// Job states, in lifecycle order.
const (
	JobPending = "pending"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobFigure is one rendered artifact of a finished sweep job.
type JobFigure struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Text  string `json:"text"`
}

// jobView is the wire form of a job's state, safe to marshal while the
// job keeps running.
type jobView struct {
	ID      string      `json:"id"`
	State   string      `json:"state"`
	Figures []string    `json:"figures"`
	Cells   int         `json:"cells,omitempty"`
	Results []JobFigure `json:"results,omitempty"`
	Error   string      `json:"error,omitempty"`
}

// job is one asynchronous sweep request.
type job struct {
	id      string
	key     string   // canonical figure list, the in-flight dedup key
	figures []string // requested figure IDs, normalized

	mu      sync.Mutex
	state   string
	cells   int
	results []JobFigure
	errMsg  string
}

func (j *job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobView{ID: j.id, State: j.state, Figures: j.figures,
		Cells: j.cells, Results: j.results, Error: j.errMsg}
}

func (j *job) setRunning(cells int) {
	j.mu.Lock()
	j.state = JobRunning
	j.cells = cells
	j.mu.Unlock()
}

func (j *job) finish(results []JobFigure, err error) string {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.state = JobFailed
		j.errMsg = err.Error()
	} else {
		j.state = JobDone
		j.results = results
	}
	return j.state
}

// jobSet indexes jobs by ID and deduplicates identical in-flight
// sweeps: a POST for a figure set that is already pending or running
// returns the active job instead of scheduling the work twice
// (singleflight at job granularity; the suite's in-flight map
// deduplicates at cell granularity below it).  Finished jobs stay
// pollable; the oldest finished ones are pruned beyond the retention
// bound.
type jobSet struct {
	mu     sync.Mutex
	max    int
	seq    int
	byID   map[string]*job
	active map[string]*job // dedup key -> pending/running job
	order  []string        // creation order, for pruning
}

func newJobSet(max int) *jobSet {
	if max <= 0 {
		max = 64
	}
	return &jobSet{max: max, byID: make(map[string]*job), active: make(map[string]*job)}
}

// errJobsFull reports the active-job bound was hit (429 upstream).
var errJobsFull = fmt.Errorf("too many active jobs")

// getOrCreate returns the active job for key, or creates one.  created
// is false when an identical sweep was already in flight.
func (s *jobSet) getOrCreate(key string, figures []string) (j *job, created bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.active[key]; ok {
		return j, false, nil
	}
	if len(s.active) >= s.max {
		return nil, false, errJobsFull
	}
	s.seq++
	j = &job{id: fmt.Sprintf("job-%06d", s.seq), key: key, figures: figures, state: JobPending}
	s.byID[j.id] = j
	s.active[key] = j
	s.order = append(s.order, j.id)
	s.pruneLocked()
	return j, true, nil
}

// release moves a finished job out of the active (dedup) table; it
// stays pollable by ID until pruned.
func (s *jobSet) release(j *job) {
	s.mu.Lock()
	if s.active[j.key] == j {
		delete(s.active, j.key)
	}
	s.mu.Unlock()
}

func (s *jobSet) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	return j, ok
}

// pruneLocked drops the oldest finished jobs beyond the retention
// bound, so a long-lived daemon's job table cannot grow without limit.
func (s *jobSet) pruneLocked() {
	for len(s.byID) > s.max {
		pruned := false
		for i, id := range s.order {
			j := s.byID[id]
			j.mu.Lock()
			finished := j.state == JobDone || j.state == JobFailed
			j.mu.Unlock()
			if finished {
				delete(s.byID, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			return // everything is active; the active bound caps this
		}
	}
}
