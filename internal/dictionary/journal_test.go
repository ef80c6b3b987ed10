package dictionary

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"ritm/internal/storage"
)

// countState is a journaled state: a counter whose checkpoint image is its
// value.
type countState struct{ n int }

func (s *countState) PersistentStateV2() []byte { return []byte{byte(s.n)} }

// fakeLog is a storage.Log that records what a journal does to it and fails
// appends on demand.
type fakeLog struct {
	appends     int
	checkpoints []int // state values checkpointed, in order
	closed      bool
	failAppend  bool
}

func (l *fakeLog) Load() ([]byte, [][]byte, error) { return nil, nil, nil }

func (l *fakeLog) Append([]byte) error {
	if l.failAppend {
		return errors.New("disk full")
	}
	l.appends++
	return nil
}

func (l *fakeLog) Checkpoint(state []byte) error {
	l.checkpoints = append(l.checkpoints, int(state[0]))
	return nil
}

func (l *fakeLog) Close() error   { l.closed = true; return nil }
func (l *fakeLog) Destroy() error { return l.Close() }

// TestJournalRules pins the write-ahead rules every dictionary holder (CA,
// origin, RA) gets from Journal. Each step applies one operation:
//
//	u  an update: the counter advances and an update record is returned
//	f  a freshness statement: the counter advances, a freshness record
//	n  a verified no-op: the counter stays and no record is returned
//	x  a refused apply: an error and no record
//	r  Replace with a state at 100
//	c  Close
func TestJournalRules(t *testing.T) {
	for _, tc := range []struct {
		name       string
		steps      string
		every      int
		noLog      bool
		failAppend bool
		// want
		n           int
		appends     int
		checkpoints []int
		closed      bool
		errs        int
	}{
		{name: "update records advance the cadence", steps: "uuuuu", every: 2,
			n: 5, appends: 5, checkpoints: []int{2, 4}},
		{name: "freshness records do not", steps: "ufffu", every: 2,
			n: 5, appends: 5, checkpoints: []int{5}},
		{name: "a nil record logs nothing", steps: "unnu", every: 2,
			n: 2, appends: 2, checkpoints: []int{2}},
		{name: "a refused apply logs nothing", steps: "uxu", every: 2,
			n: 2, appends: 2, checkpoints: []int{2}, errs: 1},
		{name: "a log-less journal still applies", steps: "uufrc", every: 1, noLog: true,
			n: 100},
		{name: "replace checkpoints and resets the cadence", steps: "urfuu", every: 2,
			n: 103, appends: 4, checkpoints: []int{100, 103}},
		{name: "close checkpoints pending update records", steps: "uuuc", every: 2,
			n: 3, appends: 3, checkpoints: []int{2, 3}, closed: true},
		{name: "close with nothing pending only closes", steps: "uufc", every: 2,
			n: 3, appends: 3, checkpoints: []int{2}, closed: true},
		{name: "after close applies run in memory", steps: "ucuc", every: 2,
			n: 2, appends: 1, checkpoints: []int{1}, closed: true},
		{name: "an append error follows the in-memory apply", steps: "uu", every: 1, failAppend: true,
			n: 2, errs: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lg := &fakeLog{failAppend: tc.failAppend}
			var log storage.Log
			if !tc.noLog {
				log = lg
			}
			j := NewJournal(&countState{}, log, tc.every)
			errs := 0
			for _, op := range tc.steps {
				var err error
				switch op {
				case 'u', 'f', 'n', 'x':
					err = j.Apply(func(s *countState) (Record, error) {
						switch op {
						case 'u':
							s.n++
							return RawRecord{0}, nil
						case 'f':
							s.n++
							return &FreshnessRecord{}, nil
						case 'x':
							return nil, errors.New("refused")
						}
						return nil, nil
					})
				case 'r':
					err = j.Replace(func(*countState) (*countState, error) { return &countState{n: 100}, nil })
				case 'c':
					err = j.Close()
				}
				if err != nil {
					errs++
				}
			}
			if got := j.State().n; got != tc.n {
				t.Errorf("state = %d, want %d", got, tc.n)
			}
			if lg.appends != tc.appends || !reflect.DeepEqual(lg.checkpoints, tc.checkpoints) || lg.closed != tc.closed {
				t.Errorf("log: %d appends, checkpoints %v, closed %v; want %d, %v, %v",
					lg.appends, lg.checkpoints, lg.closed, tc.appends, tc.checkpoints, tc.closed)
			}
			if errs != tc.errs {
				t.Errorf("%d errors, want %d", errs, tc.errs)
			}
		})
	}
}

// TestJournalReplaceRefusal: a Replace whose check refuses leaves the state
// and the log untouched.
func TestJournalReplaceRefusal(t *testing.T) {
	lg := &fakeLog{}
	j := NewJournal(&countState{n: 7}, lg, 1)
	refused := errors.New("diverged")
	err := j.Replace(func(*countState) (*countState, error) { return nil, refused })
	if !errors.Is(err, refused) || j.State().n != 7 || len(lg.checkpoints) != 0 {
		t.Fatalf("refused Replace: err %v, state %d, checkpoints %v", err, j.State().n, lg.checkpoints)
	}
}

// TestJournalConcurrentApply: applies from many goroutines, with a Replace
// among them, reach the state and the log one at a time — the fake log is
// not safe for concurrent use, so the race detector sees any access outside
// the journal's lock — and every update record is counted by the cadence.
func TestJournalConcurrentApply(t *testing.T) {
	const workers, each = 8, 50
	lg := &fakeLog{}
	j := NewJournal(&countState{}, lg, 7)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := j.Apply(func(s *countState) (Record, error) {
					s.n++
					return RawRecord{0}, nil
				}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	if err := j.Replace(func(cur *countState) (*countState, error) { return &countState{n: cur.n}, nil }); err != nil {
		t.Error(err)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := j.State().n; got != workers*each || lg.appends != workers*each {
		t.Fatalf("state %d, %d appends; want %d of each", got, lg.appends, workers*each)
	}
	if last := lg.checkpoints[len(lg.checkpoints)-1]; last != workers*each%256 {
		t.Fatalf("last checkpoint at %d, want the final state", last)
	}
}
