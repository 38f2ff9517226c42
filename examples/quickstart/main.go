// Quickstart walks through the Cicada public API: open a database, create a
// table and indexes, run read-write transactions with automatic retry, use
// read-own-writes, range scans, and read-only snapshot transactions.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	cicada "cicada"
)

func main() {
	// A database with 2 worker threads. Each Worker handle must be used by
	// one goroutine at a time.
	db := cicada.Open(cicada.DefaultConfig(2))
	users := db.CreateTable("users")
	byID := db.CreateHashIndex("users_by_id", 1024, true) // unique
	byAge := db.CreateBTreeIndex("users_by_age", false)   // ordered, duplicates

	w := db.Worker(0)

	// Insert a few users. Records are raw bytes; here: age in the first 8
	// bytes, name after.
	type user struct {
		id   uint64
		age  uint64
		name string
	}
	usersToAdd := []user{
		{1, 34, "ada"}, {2, 52, "grace"}, {3, 29, "edsger"}, {4, 41, "barbara"},
	}
	for _, u := range usersToAdd {
		u := u
		err := w.Run(func(tx *cicada.Txn) error {
			rid, buf, err := tx.Insert(users, 8+len(u.name))
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(buf, u.age)
			copy(buf[8:], u.name)
			if err := byID.Insert(tx, u.id, rid); err != nil {
				return err
			}
			return byAge.Insert(tx, u.age, rid)
		})
		if err != nil {
			log.Fatalf("insert %s: %v", u.name, err)
		}
	}

	// A read-modify-write with read-own-writes: birthday for user 3.
	var birthday cicada.Timestamp
	err := w.Run(func(tx *cicada.Txn) error {
		birthday = tx.Timestamp()
		rid, err := byID.Get(tx, 3)
		if err != nil {
			return err
		}
		buf, err := tx.Update(users, rid, -1)
		if err != nil {
			return err
		}
		age := binary.LittleEndian.Uint64(buf)
		binary.LittleEndian.PutUint64(buf, age+1)
		// The transaction sees its own write immediately.
		again, err := tx.Read(users, rid)
		if err != nil {
			return err
		}
		fmt.Printf("user 3 (%s) is now %d\n", again[8:], binary.LittleEndian.Uint64(again))
		// Keep the age index in sync.
		if err := byAge.Delete(tx, age, rid); err != nil {
			return err
		}
		return byAge.Insert(tx, age+1, rid)
	})
	if err != nil {
		log.Fatal(err)
	}

	// Idle workers keep the snapshot horizon moving, one step per GC
	// interval; once it has passed the birthday, scan ages 30–55 in a
	// read-only snapshot transaction (never aborts, never validates).
	for db.Worker(1).SnapshotTimestamp() < birthday {
		db.Worker(0).Idle()
		db.Worker(1).Idle()
	}
	err = db.Worker(1).RunReadOnly(func(tx *cicada.Txn) error {
		fmt.Println("users aged 30–55:")
		return byAge.Scan(tx, 30, 55, -1, func(age uint64, rid cicada.RecordID) bool {
			d, err := tx.Read(users, rid)
			if err != nil {
				return false
			}
			fmt.Printf("  %-8s age %d\n", d[8:], age)
			return true
		})
	})
	if err != nil {
		log.Fatal(err)
	}

	s := db.Stats()
	fmt.Printf("committed %d transactions (%d aborts)\n", s.Commits, s.Aborts)
}
