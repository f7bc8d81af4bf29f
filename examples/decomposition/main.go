// Decomposition demonstrates the conclusion's representation-system
// direction, now end to end through the store subsystem: the §2 census
// repair view with 40 violated keys has 2^40 possible worlds — far
// beyond enumeration — yet as a world-set decomposition it fits in
// linear space, answers possible/certain queries in microseconds,
// persists to a .wsd JSON file of linear size, and reloads into an
// I-SQL session that keeps querying it without ever expanding a world.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/isql"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
	"worldsetdb/internal/wsdexec"
)

func main() {
	census := datagen.Census(10000, 40, 7)
	fmt.Printf("Census: %d rows, 40 SSNs duplicated\n\n", census.Len())

	start := time.Now()
	d, err := wsd.RepairByKey("Census", census, []string{"SSN"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decomposed in %v:\n", time.Since(start))
	fmt.Printf("  worlds represented: %s (= 2^40)\n", d.Worlds())
	fmt.Printf("  representation size: %d tuples (the input itself)\n", d.Size())
	fmt.Printf("  components: %d (one per violated key)\n\n", len(d.Components))

	// Certain and possible tuples come out of the factorized engine,
	// which scans each component once instead of enumerating worlds.
	start = time.Now()
	cert := answer(wsa.NewCert(&wsa.Rel{Name: "Census"}), d)
	fmt.Printf("certain tuples (hold in every repair): %d, computed in %v\n",
		cert.Len(), time.Since(start))

	start = time.Now()
	poss := answer(wsa.NewPoss(&wsa.Rel{Name: "Census"}), d)
	fmt.Printf("possible tuples (hold in some repair): %d, computed in %v\n\n",
		poss.Len(), time.Since(start))

	if _, err := d.Expand(wsd.DefaultExpandBudget); err != nil {
		fmt.Println("explicit expansion correctly refused:", err)
	}

	// The same pipeline through the decomposition-native store: the
	// repair materializes as a catalog table (still 2^40 worlds, still
	// linear space), persists to a .wsd file and reloads.
	session := isql.FromDB([]string{"Census"}, []*relation.Relation{census})
	start = time.Now()
	if _, err := session.ExecString("create table Clean as select * from Census repair by key SSN;"); err != nil {
		log.Fatal(err)
	}
	snap := session.Catalog().Snapshot()
	fmt.Printf("\nstore: materialized Clean in %v — %s worlds, catalog size %d tuples\n",
		time.Since(start), snap.DB.Worlds(), snap.DB.Size())

	path := filepath.Join(os.TempDir(), "census_demo.wsd")
	if err := isql.SaveCatalog(path, session); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store: catalog saved to %s (%d bytes for 2^40 worlds)\n", path, info.Size())

	reloaded, err := isql.LoadCatalog(path)
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	res, err := reloaded.ExecString("select certain POB from Clean;")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store: reloaded and answered a certain-query natively in %v (%d certain birthplaces, plan: %v)\n",
		time.Since(start), res.Answers[0].Len(), res.Plan)
	defer os.Remove(path)

	// On a small instance, the decomposition expands to exactly the
	// repairs the paper's view enumerates.
	small, err := wsd.RepairByKey("Census", datagen.PaperCensus(), []string{"SSN"})
	if err != nil {
		log.Fatal(err)
	}
	ws, err := small.Expand(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npaper's 5-row census: %d repairs from a size-%d decomposition\n",
		ws.Len(), small.Size())
}

// answer evaluates a poss or cert query natively on the decomposition
// and returns its answer, which such a query leaves certain.
func answer(q wsa.Expr, d *wsd.DecompDB) *relation.Relation {
	out, _, err := wsdexec.Eval(q, d)
	if err != nil {
		log.Fatal(err)
	}
	return out.Certain[len(out.Names)-1]
}
