package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"cicada"
)

// selftest proves that each workload's output check is live: it passes on
// good output and fires when one update is deliberately dropped. It runs the
// real checks on small instances, as `benchmark selftest` and under go test.
func selftest() error {
	return errors.Join(
		named("RMW counter check", selftestCounters()),
		named("queue check", selftestQueue()),
		named("recovery checksum check", selftestRecovery()),
		named("server read-back check", selftestServer()),
	)
}

func named(what string, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// mustFire turns "the check passed" into the self-test's failure.
func mustFire(err error, tampering string) error {
	if err == nil {
		return fmt.Errorf("check still passes after %s", tampering)
	}
	return nil
}

var selftestTable = ycsbParams{workers: 1, records: 2_000, recordSize: 100, reqs: 4, rmwFrac: 0.5, theta: 0.9, distinct: true}

// smallYCSB loads a small table and commits n transactions, returning the
// RMW requests they held.
func smallYCSB(y *ycsbDB, n int) (rmw uint64, err error) {
	if err := y.load(); err != nil {
		return 0, err
	}
	g := y.newGen(0, 7)
	for i := 0; i < n; i++ {
		g.next()
		if err := g.run(nil); err != nil {
			return 0, err
		}
		rmw += g.nRMW
	}
	return rmw, nil
}

func selftestCounters() error {
	y := openYCSB(selftestTable, false)
	rmw, err := smallYCSB(y, 500)
	if err != nil {
		return err
	}
	sum, err := y.sumCounters()
	if err != nil {
		return err
	}
	if err := checkCounters(sum, rmw); err != nil {
		return fmt.Errorf("good output rejected: %w", err)
	}
	// The dropped update: a committed RMW request that never incremented.
	err = y.db.Worker(0).Run(func(tx *cicada.Txn) error {
		rid, err := y.idx.Get(tx, 3)
		if err != nil {
			return err
		}
		_, err = tx.Update(y.tbl, rid, -1)
		return err
	})
	if err != nil {
		return err
	}
	rmw++
	if sum, err = y.sumCounters(); err != nil {
		return err
	}
	return mustFire(checkCounters(sum, rmw), "an RMW that did not increment")
}

func selftestQueue() error {
	q := openQueue()
	if err := q.load(); err != nil {
		return err
	}
	for i := 0; i < 200; i++ {
		if err := q.run(nil); err != nil {
			return err
		}
	}
	if err := q.checkQueue(); err != nil {
		return fmt.Errorf("good output rejected: %w", err)
	}
	// The dropped update: a transaction that consumed the head but whose
	// insert at the tail was lost.
	err := q.w.Run(func(tx *cicada.Txn) error {
		rid, err := q.idx.Get(tx, q.head)
		if err != nil {
			return err
		}
		if err := tx.Delete(q.tbl, rid); err != nil {
			return err
		}
		return q.idx.Delete(tx, q.head, rid)
	})
	if err != nil {
		return err
	}
	q.head++
	q.tail++
	return mustFire(q.checkQueue(), "a lost insert")
}

func selftestRecovery() error {
	dir, err := os.MkdirTemp("", "cicada-bench-selftest-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	y := openYCSB(selftestTable, false)
	wal, err := y.db.AttachWAL(cicada.WALConfig{Dir: dir})
	if err != nil {
		return err
	}
	if _, err := smallYCSB(y, 500); err != nil {
		wal.Close()
		return err
	}
	if err := wal.Close(); err != nil {
		return err
	}
	liveN, live, err := y.tableChecksum()
	if err != nil {
		return err
	}
	recovered := func() (int, uint64, error) {
		rec := openYCSB(selftestTable, false)
		if _, err := rec.db.Recover(dir); err != nil {
			return 0, 0, err
		}
		return rec.tableChecksum()
	}
	n, sum, err := recovered()
	if err != nil {
		return err
	}
	if err := checkChecksum(liveN, live, n, sum); err != nil {
		return fmt.Errorf("good output rejected: %w", err)
	}
	// The dropped update: the tail of the newest log file never reached the
	// disk, so recovery drops the last committed record.
	logs, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return err
	}
	sort.Strings(logs)
	torn := false
	for i := len(logs) - 1; i >= 0 && !torn; i-- {
		if info, err := os.Stat(logs[i]); err == nil && info.Mode().IsRegular() && info.Size() > 64 {
			if err := os.Truncate(logs[i], info.Size()-16); err != nil {
				return err
			}
			torn = true
		}
	}
	if !torn {
		return errors.New("no log file to tear")
	}
	if n, sum, err = recovered(); err != nil {
		return err
	}
	return mustFire(checkChecksum(liveN, live, n, sum), "tearing the log's last record")
}

func selftestServer() error {
	inst, err := setupServer(0)(runOpts{seed: 7})
	if err != nil {
		return err
	}
	s := inst.(*serverInst)
	defer s.close()
	if err := s.readBack(); err != nil {
		return fmt.Errorf("good output rejected: %w", err)
	}
	// The dropped update: the client was acked for a version of key 4 that
	// the server never applied.
	s.last[4]++
	return mustFire(s.readBack(), "an acked put the server lost")
}
