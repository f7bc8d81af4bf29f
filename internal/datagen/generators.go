package datagen

import (
	"fmt"
	"math/rand"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/worldset"
	"worldsetdb/internal/wsd"
)

// Flights generates a Flights(Dep, Arr) relation with nDep departure
// airports and, for each, a random subset of nArr arrival airports with
// the given density. A designated "hub" arrival appears for every
// departure so that `cert` queries have non-empty answers. Deterministic
// in seed.
func Flights(nDep, nArr int, density float64, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(relation.NewSchema("Dep", "Arr"))
	for d := 0; d < nDep; d++ {
		dep := value.Str(fmt.Sprintf("D%03d", d))
		r.Insert(relation.Tuple{dep, value.Str("HUB")})
		for a := 0; a < nArr; a++ {
			if rng.Float64() < density {
				r.Insert(relation.Tuple{dep, value.Str(fmt.Sprintf("A%03d", a))})
			}
		}
	}
	return r
}

// Hotels generates Hotels(Name, City, Price) with one or more hotels per
// arrival city produced by Flights (cities A000..A(nArr-1) and HUB).
func Hotels(nArr, perCity int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(relation.NewSchema("Name", "City", "Price"))
	cities := []string{"HUB"}
	for a := 0; a < nArr; a++ {
		cities = append(cities, fmt.Sprintf("A%03d", a))
	}
	for _, c := range cities {
		for h := 0; h < perCity; h++ {
			r.Insert(relation.Tuple{
				value.Str(fmt.Sprintf("H-%s-%d", c, h)),
				value.Str(c),
				value.Int(int64(50 + rng.Intn(400))),
			})
		}
	}
	return r
}

// CompanyEmp generates Company_Emp(CID, EID) with nCompanies companies
// of empPerCompany employees each.
func CompanyEmp(nCompanies, empPerCompany int) *relation.Relation {
	r := relation.New(relation.NewSchema("CID", "EID"))
	for c := 0; c < nCompanies; c++ {
		for e := 0; e < empPerCompany; e++ {
			r.Insert(relation.Tuple{
				value.Str(fmt.Sprintf("C%03d", c)),
				value.Str(fmt.Sprintf("e%03d_%03d", c, e)),
			})
		}
	}
	return r
}

// EmpSkills generates Emp_Skills(EID, Skill) giving each employee of
// CompanyEmp(nCompanies, empPerCompany) a random subset of nSkills
// skills; every employee gets skill "S0" so that certain-skill queries
// are non-trivial.
func EmpSkills(nCompanies, empPerCompany, nSkills int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(relation.NewSchema("EID", "Skill"))
	for c := 0; c < nCompanies; c++ {
		for e := 0; e < empPerCompany; e++ {
			eid := value.Str(fmt.Sprintf("e%03d_%03d", c, e))
			r.Insert(relation.Tuple{eid, value.Str("S0")})
			for s := 1; s < nSkills; s++ {
				if rng.Float64() < 0.4 {
					r.Insert(relation.Tuple{eid, value.Str(fmt.Sprintf("S%d", s))})
				}
			}
		}
	}
	return r
}

// Lineitem generates Lineitem(Product, Quantity, Price, Year) in the
// spirit of the §2 TPC-H discussion: nProducts products sold in one of
// nQuantities package sizes across nYears years.
func Lineitem(nProducts, nQuantities, nYears int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(relation.NewSchema("Product", "Quantity", "Price", "Year"))
	for p := 0; p < nProducts; p++ {
		for y := 0; y < nYears; y++ {
			q := 100 * (1 + rng.Intn(nQuantities))
			r.Insert(relation.Tuple{
				value.Str(fmt.Sprintf("P%04d", p)),
				value.Int(int64(q)),
				value.Int(int64(10 + rng.Intn(10000))),
				value.Int(int64(2000 + y)),
			})
		}
	}
	return r
}

// Census generates Census(SSN, Name, POB, POW) with n persons of which
// nDup social security numbers are duplicated once (each duplicated SSN
// doubles the number of repairs: 2^nDup worlds).
func Census(n, nDup int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(relation.NewSchema("SSN", "Name", "POB", "POW"))
	cities := []string{"NYC", "LA", "SF", "Austin", "Boston"}
	for i := 0; i < n; i++ {
		r.Insert(relation.Tuple{
			value.Int(int64(100000 + i)),
			value.Str(fmt.Sprintf("Person%04d", i)),
			value.Str(cities[rng.Intn(len(cities))]),
			value.Str(cities[rng.Intn(len(cities))]),
		})
	}
	for i := 0; i < nDup && i < n; i++ {
		// A second, conflicting tuple for an existing SSN (mistyped name).
		r.Insert(relation.Tuple{
			value.Int(int64(100000 + i)),
			value.Str(fmt.Sprintf("Persom%04d", i)),
			value.Str(cities[rng.Intn(len(cities))]),
			value.Str(cities[rng.Intn(len(cities))]),
		})
	}
	return r
}

// CensusRepairDecomp builds the repaired census catalog decomposition
// directly: ⟨Clean, Census⟩ where Census is the generated relation
// (certain) and Clean its repair-by-key view — one independent
// component per duplicated SSN, 2^nDup represented worlds in linear
// space. This is the canonical store/serving workload: benchmarks and
// server tests seed catalogs from it without running the I-SQL
// pipeline first.
func CensusRepairDecomp(n, nDup int, seed int64) *wsd.DecompDB {
	census := Census(n, nDup, seed)
	repair, err := wsd.RepairByKey("Clean", census, []string{"SSN"})
	if err != nil {
		panic(err) // generated input always has the SSN column
	}
	return repair.WithRelation("Census", census.Schema(), census)
}

// RandomRelation generates a relation over the given schema with up to
// maxTuples tuples drawn from an integer domain of the given size.
func RandomRelation(rng *rand.Rand, schema relation.Schema, domain, maxTuples int) *relation.Relation {
	r := relation.New(schema)
	n := rng.Intn(maxTuples + 1)
	for i := 0; i < n; i++ {
		t := make(relation.Tuple, len(schema))
		for j := range t {
			t[j] = value.Int(int64(rng.Intn(domain)))
		}
		r.Insert(t)
	}
	return r
}

// RandomDecompDB generates a multi-relation world-set decomposition
// over the given named schemas: random certain relations plus up to
// maxComponents independent components, each with 1..maxAlternatives
// alternatives contributing random (possibly empty) tuple sets to a
// random subset of the relations. The represented world count is at
// most maxAlternatives^maxComponents, so differential tests can keep
// inputs expandable while still exercising genuinely factored
// structure (components spanning several relations, empty alternatives,
// shared tuples between certain and alternative partitions).
func RandomDecompDB(rng *rand.Rand, names []string, schemas []relation.Schema,
	domain, maxCertain, maxComponents, maxAlternatives, maxTuples int) *wsd.DecompDB {
	db := wsd.NewDecompDB(names, schemas)
	for i, s := range schemas {
		db.Certain[i] = RandomRelation(rng, s, domain, maxCertain)
	}
	nComp := rng.Intn(maxComponents + 1)
	for c := 0; c < nComp; c++ {
		comp := wsd.DBComponent{}
		nAlt := 1 + rng.Intn(maxAlternatives)
		for a := 0; a < nAlt; a++ {
			alt := wsd.DBAlternative{Rels: map[int]*relation.Relation{}}
			for i, s := range schemas {
				if rng.Intn(3) == 0 {
					continue // this alternative leaves relation i alone
				}
				r := RandomRelation(rng, s, domain, maxTuples)
				if r.Len() > 0 {
					alt.Rels[i] = r
				}
			}
			comp.Alternatives = append(comp.Alternatives, alt)
		}
		db.Components = append(db.Components, comp)
	}
	return db
}

// RandomWorldSet generates a world-set with up to maxWorlds worlds over
// the given named schemas, each relation drawn by RandomRelation. At
// least one world is always produced.
func RandomWorldSet(rng *rand.Rand, names []string, schemas []relation.Schema, domain, maxTuples, maxWorlds int) *worldset.WorldSet {
	ws := worldset.New(names, schemas)
	n := 1 + rng.Intn(maxWorlds)
	for i := 0; i < n; i++ {
		w := make(worldset.World, len(schemas))
		for j, s := range schemas {
			w[j] = RandomRelation(rng, s, domain, maxTuples)
		}
		ws.Add(w)
	}
	return ws
}
