package main

import (
	"fmt"
	"math/rand"
	"strings"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/store"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsd"
)

// workload is one traffic mix against one catalog and server layout.
// The reasons each exists are in BENCHMARK.json and README.md.
type workload struct {
	name      string
	wide      bool // census1k_d40_wide16: 16 unrelated 1000-row relations ride along
	shards    int
	poolPages int // 0 = isqld's default (the catalog fits)
	// Request mix in percent, in multiples of 5: prepared fragment reads,
	// unprepared aggregates; the rest are writes.
	readPct, aggPct int
	// audit makes each transaction insert into Log<c> and Audit<c>, which
	// live on two different shards.
	audit bool
}

var workloads = []workload{
	{name: "read_prepared", shards: 1, readPct: 100},
	{name: "write_disjoint", shards: 1},
	{name: "agg_wide", wide: true, shards: 1, aggPct: 100},
	{name: "mixed_sharded", wide: true, shards: 4, poolPages: 32, readPct: 70, aggPct: 15, audit: true},
}

func (w workload) hasReads() bool  { return w.readPct > 0 }
func (w workload) hasAggs() bool   { return w.aggPct > 0 }
func (w workload) hasWrites() bool { return w.readPct+w.aggPct < 100 }

// Request classes, also the names of the per-class latency metrics.
const (
	classRead  = "read"
	classAgg   = "agg"
	classWrite = "write"
)

// request is one HTTP POST. Reads and aggregates have a fixed answer;
// writes carry the rows the server must still hold after a crash.
type request struct {
	class    string
	endpoint string // "exec", "execute" or "prepare"
	body     string
	rows     []ackRow // writes only
}

// ackRow identifies one inserted row: its table and the client's
// sequence number stored in column S.
type ackRow struct {
	table string
	seq   int
}

const (
	censusRows = 1000
	censusDups = 40 // 2^40 worlds
	ssnBase    = 100000
)

// cities are the POB/POW values datagen.Census draws from.
var cities = []string{"NYC", "LA", "SF", "Austin", "Boston"}

// buildCatalog generates the seed catalog: the repaired census, for
// aggregate workloads the two small base tables their set-up turns into
// choice and repair tables, and for wide catalogs 16 relations no
// request ever names.
func buildCatalog(seed int64, wide, aggTables bool) *wsd.DecompDB {
	db := datagen.CensusRepairDecomp(censusRows, censusDups, seed)
	if aggTables {
		tiny := relation.New(relation.NewSchema("V"))
		for v := int64(1); v <= 3; v++ {
			tiny.Insert(relation.Tuple{value.Int(v)})
		}
		db = db.WithRelation("Tiny", tiny.Schema(), tiny)
		c4 := datagen.Census(100, 4, seed)
		db = db.WithRelation("Census4", c4.Schema(), c4)
	}
	if wide {
		for i := 0; i < 16; i++ {
			r := datagen.Census(censusRows, 0, seed+int64(i)+1)
			db = db.WithRelation(fmt.Sprintf("Other%d", i), r.Schema(), r)
		}
	}
	return db
}

// prepares registers the three fragment selects of the read path.
const prepares = `prepare poss_by_pob_pow as select possible Name from Clean where POB = $1 and POW = $2;
prepare cert_by_pow_pob as select certain Name from Clean where POW = $1 and POB = $2;
prepare by_ssn as select possible Name, POB, POW from Clean where SSN = $1;`

// aggregates are out-of-fragment statements whose dependent region fits
// the expansion budget: 3 worlds, 16 worlds, and two over certain data.
var aggregates = []string{
	"select sum(V) as S from Pick1;",
	"select POW, count(*) as N from Clean4 group by POW;",
	"select POB, count(*) as N from Census group by POB;",
	"select Name from Census where POB = 'NYC' and SSN in (select SSN from Census where POW = 'LA');",
}

// aggregateShares are the statements' shares of the aggregate requests.
// The four cost about 60, 300, 20 and 20 ms on the wide catalog; with
// equal shares the median request would sit on the border between the
// 20 ms and the 60 ms statement and jump between them from run to run.
var aggregateShares = []int{1, 1, 2, 1}

// probe is the first read after a restart; it needs no prepared plan,
// which a crash discards.
var probe = request{class: classRead, endpoint: "exec",
	body: "select certain Name from Clean where POB = 'NYC' and POW = 'LA';"}

func logTable(c int) string { return fmt.Sprintf("Log%d", c) }

// auditTable names client c's second table so that it hashes to another
// shard than Log<c>: a transaction over the pair is a cross-shard commit.
func auditTable(c, shards int) string {
	cat := store.NewSharded(nil, shards)
	for k := 0; ; k++ {
		name := fmt.Sprintf("Audit%d_%d", c, k)
		if shards == 1 || cat.ShardOf(name) != cat.ShardOf(logTable(c)) {
			return name
		}
	}
}

// setupRequests is what a client sends once, before any load: DDL for
// the tables the mix needs, then the PREPAREs.
func (w workload) setupRequests(clients int) []request {
	var ddl []string
	if w.hasAggs() {
		ddl = append(ddl,
			"create table Pick1 as select * from Tiny choice of V;",
			"create table Clean4 as select * from Census4 repair by key SSN;")
	}
	if w.hasWrites() {
		for c := 0; c < clients; c++ {
			ddl = append(ddl, fmt.Sprintf("create table %s (C, S, V);", logTable(c)))
			if w.audit {
				ddl = append(ddl, fmt.Sprintf("create table %s (C, S, V);", auditTable(c, w.shards)))
			}
		}
	}
	var reqs []request
	if len(ddl) > 0 {
		reqs = append(reqs, request{endpoint: "exec", body: strings.Join(ddl, "\n")})
	}
	if w.hasReads() {
		reqs = append(reqs, request{endpoint: "prepare", body: prepares})
	}
	return reqs
}

// fixedSet holds every distinct request of a mix whose answer writes
// cannot change. The generator draws from it by index and the oracle
// records one expected body per entry.
type fixedSet struct {
	reqs []request
	// reads groups request indexes by prepared statement, so the three
	// statements are equally likely whatever their parameter spaces.
	reads [][]int
	aggs  []int
}

func (f *fixedSet) add(group *[]int, r request) {
	*group = append(*group, len(f.reqs))
	f.reqs = append(f.reqs, r)
}

func (w workload) fixedRequests() *fixedSet {
	f := &fixedSet{}
	if w.hasReads() {
		f.reads = make([][]int, 3)
		exec := func(g int, format string, args ...any) {
			f.add(&f.reads[g], request{class: classRead, endpoint: "execute", body: fmt.Sprintf(format, args...)})
		}
		for _, a := range cities {
			for _, b := range cities {
				exec(0, "poss_by_pob_pow('%s', '%s')", a, b)
				exec(1, "cert_by_pow_pob('%s', '%s')", a, b)
			}
		}
		for i := 0; i < censusRows; i++ {
			exec(2, "by_ssn(%d)", ssnBase+i)
		}
	}
	if w.hasAggs() {
		for _, q := range aggregates {
			f.add(&f.aggs, request{class: classAgg, endpoint: "exec", body: q})
		}
	}
	return f
}

// deck deals its cards in a seeded order and reshuffles when it runs
// out, so every len(cards) draws hold each card exactly once: the mix a
// run measures is the stated one, not a binomial sample of it.
type deck struct {
	cards []int
	next  int
}

func newDeck(counts ...int) *deck {
	d := &deck{}
	for card, n := range counts {
		for ; n > 0; n-- {
			d.cards = append(d.cards, card)
		}
	}
	return d
}

func (d *deck) draw(rng *rand.Rand) int {
	if d.next == 0 {
		rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.next]
	d.next = (d.next + 1) % len(d.cards)
	return c
}

// generator produces one client's request stream from the seed alone.
type generator struct {
	w      workload
	fixed  *fixedSet
	client int
	rng    *rand.Rand
	// classes deals read, aggregate, write in the workload's shares;
	// reads and aggs deal the statements of their class; txns deals three
	// single inserts to one transaction.
	classes, reads, aggs, txns *deck
	seq                        int
	// insertBytes is the text of every insert generated so far, the user
	// data this client asked the server to keep.
	insertBytes int64
	logTbl      string
	auditTbl    string
}

func newGenerator(w workload, fixed *fixedSet, seed int64, client int) *generator {
	g := &generator{w: w, fixed: fixed, client: client, logTbl: logTable(client),
		rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(client))),
		classes: newDeck(w.readPct/5, w.aggPct/5, (100-w.readPct-w.aggPct)/5),
		reads:   newDeck(1, 1, 1),
		aggs:    newDeck(aggregateShares...),
		txns:    newDeck(3, 1),
	}
	if w.audit {
		g.auditTbl = auditTable(client, w.shards)
	}
	return g
}

// next returns the next request and, for a fixed request, its index
// (-1 for a write). Parameters are uniform over their space.
func (g *generator) next() (request, int) {
	var i int
	switch g.classes.draw(g.rng) {
	case 0:
		group := g.fixed.reads[g.reads.draw(g.rng)]
		i = group[g.rng.Intn(len(group))]
	case 1:
		i = g.fixed.aggs[g.aggs.draw(g.rng)]
	default:
		return g.write(), -1
	}
	return g.fixed.reqs[i], i
}

func (g *generator) insert(table string) (string, ackRow) {
	g.seq++
	sql := fmt.Sprintf("insert into %s values (%d, %d, %d);", table, g.client, g.seq, g.rng.Intn(1000))
	g.insertBytes += int64(len(sql))
	return sql, ackRow{table, g.seq}
}

// write is a single-row insert three times in four, otherwise a
// four-statement transaction of two inserts.
func (g *generator) write() request {
	r := request{class: classWrite, endpoint: "exec"}
	if g.txns.draw(g.rng) == 0 {
		sql, row := g.insert(g.logTbl)
		r.body, r.rows = sql, []ackRow{row}
		return r
	}
	second := g.logTbl
	if g.w.audit {
		second = g.auditTbl
	}
	s1, r1 := g.insert(g.logTbl)
	s2, r2 := g.insert(second)
	r.body, r.rows = "begin; "+s1+" "+s2+" commit;", []ackRow{r1, r2}
	return r
}
