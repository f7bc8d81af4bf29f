// Command isql executes I-SQL scripts over world-sets backed by the
// decomposition-native store.
//
// Usage:
//
//	isql [-demo name] [-engine name] [-load file.wsd] [-save file.wsd] [-worlds] [script.isql]
//
// Without a script argument, statements are read from standard input.
// The -demo flag preloads one of the paper's datasets: flights,
// acquisition, census or lineitem; -load instead opens a catalog
// persisted as a .wsd JSON file, and -save writes the catalog back
// after the script ran — the decomposition round-trips in space linear
// in its size whatever the world count. After every select, the
// distinct answers across worlds are printed; -worlds additionally
// prints the whole world-set after each statement (or the
// decomposition summary when the world count exceeds the expansion
// budget).
//
// The -engine flag routes statements in the clean World-set Algebra
// fragment through one of the registered evaluation engines (reference
// | translated | wsdexec, the default), all running against the
// session's catalog snapshot; an unknown name is refused before the
// script is read. Statements outside the fragment
// (aggregates, subqueries, DELETE/UPDATE with a subquery) always take
// the second arm: the world-at-a-time evaluator over the bounded input
// — only the components the statement's relations depend on are
// enumerated, under the world budget — with results re-factorized into
// the catalog. The special name "legacy" is the comparison mode: nothing
// compiles, every statement takes that arm, and every component counts
// as dependent (the whole world-set is enumerated).
//
// Scripts may use the transactional statements BEGIN / COMMIT /
// ROLLBACK (multi-statement atomicity over one staged snapshot) and
// PREPARE name AS ... / EXECUTE name(args) with $1..$N placeholders
// (parse-once execution through the session plan cache).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/isql"
	"worldsetdb/internal/wsa"

	// Register the translated and factorized engines with the wsa
	// engine registry (the reference engine registers itself).
	_ "worldsetdb/internal/translate"
	_ "worldsetdb/internal/wsdexec"
)

func main() {
	demo := flag.String("demo", "", "preload a demo database: flights | acquisition | census | lineitem")
	load := flag.String("load", "", "open a catalog persisted as a .wsd JSON file")
	save := flag.String("save", "", "persist the catalog to a .wsd JSON file after the script ran")
	engine := flag.String("engine", "",
		fmt.Sprintf("evaluate fragment statements through a registered WSA engine (%s), or 'legacy': every statement world by world over the full expansion, the reference for the bounded arm; default: wsdexec on the decomposition",
			strings.Join(wsa.EngineNames(), " | ")))
	showWorlds := flag.Bool("worlds", false, "print the full world-set (or decomposition summary) after every statement")
	flag.Parse()
	if err := checkEngine(*engine); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	session, err := newSession(*demo, *load)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	session.Engine = *engine

	var input string
	switch flag.NArg() {
	case 0:
		data, err := readAll(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		input = data
	case 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		input = string(data)
	default:
		fmt.Fprintln(os.Stderr, "usage: isql [-demo name] [-engine name] [-load file.wsd] [-save file.wsd] [-worlds] [script.isql]")
		os.Exit(2)
	}

	stmts, err := isql.ParseScript(input)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, st := range stmts {
		fmt.Printf("isql> %s\n", st)
		res, err := session.Exec(st)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		switch {
		case len(res.Answers) > 0:
			for i, a := range res.Answers {
				caption := "answer"
				if len(res.Answers) > 1 {
					caption = fmt.Sprintf("answer variant %d of %d", i+1, len(res.Answers))
				}
				fmt.Println(a.Render(caption))
			}
		case res.Message != "":
			fmt.Printf("%s\n\n", res.Message)
		case res.Affected > 0:
			fmt.Printf("%d tuple(s) affected across %s world(s)\n\n", res.Affected, session.Worlds())
		default:
			fmt.Printf("ok; %s world(s)\n\n", session.Worlds())
		}
		if *showWorlds {
			if ws := session.WorldSet(); ws != nil {
				fmt.Println(ws)
			} else {
				fmt.Println(session.Catalog().Snapshot().DB)
			}
		}
	}

	if *save != "" {
		if err := isql.SaveCatalog(*save, session); err != nil {
			fmt.Fprintln(os.Stderr, "error saving catalog:", err)
			os.Exit(1)
		}
		fmt.Printf("catalog saved to %s\n", *save)
	}
}

// checkEngine accepts the empty default, a registered engine name and
// "legacy"; anything else is an error listing what is accepted.
func checkEngine(name string) error {
	names := append(wsa.EngineNames(), "legacy")
	if name == "" || slices.Contains(names, name) {
		return nil
	}
	return fmt.Errorf("isql: unknown -engine %q (want %s)", name, strings.Join(names, " | "))
}

func newSession(demo, load string) (*isql.Session, error) {
	if load != "" {
		if demo != "" {
			return nil, fmt.Errorf("isql: -demo and -load are mutually exclusive")
		}
		return isql.LoadCatalog(load)
	}
	if demo == "" {
		return isql.NewSession(), nil
	}
	names, rels, err := datagen.DemoDB(demo)
	if err != nil {
		return nil, err
	}
	return isql.FromDB(names, rels), nil
}

func readAll(f *os.File) (string, error) {
	var sb strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	return sb.String(), sc.Err()
}
