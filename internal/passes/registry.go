package passes

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// factories maps registry names to pass constructors. The optional arg is
// the text after '=' in a pass spec ("arm-slack=3").
var factories = map[string]func(arg string) (Pass, error){
	"literal-control": func(arg string) (Pass, error) {
		if arg != "" {
			return nil, fmt.Errorf("literal-control takes no argument")
		}
		return LiteralControl{}, nil
	},
	"arm-slack": func(arg string) (Pass, error) {
		stages := 1
		if arg != "" {
			n, err := strconv.Atoi(arg)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("arm-slack wants a positive stage count, got %q", arg)
			}
			stages = n
		}
		return ArmSlack{Stages: stages}, nil
	},
	"dedup": func(arg string) (Pass, error) {
		if arg != "" {
			return nil, fmt.Errorf("dedup takes no argument")
		}
		return Dedup{}, nil
	},
	"balance": func(arg string) (Pass, error) {
		if arg != "" {
			return nil, fmt.Errorf("balance takes no argument")
		}
		return Balance{}, nil
	},
	"balance-naive": func(arg string) (Pass, error) {
		if arg != "" {
			return nil, fmt.Errorf("balance-naive takes no argument")
		}
		return Balance{Naive: true}, nil
	},
	"expand-fifos": func(arg string) (Pass, error) {
		if arg != "" {
			return nil, fmt.Errorf("expand-fifos takes no argument")
		}
		return ExpandFIFOs{}, nil
	},
}

// Names returns the registered pass names in canonical pipeline order
// (structural rewrites, then balancing, then lowering); names not in the
// canonical sequence sort alphabetically after it.
func Names() []string {
	canonical := []string{"literal-control", "arm-slack", "dedup", "balance", "balance-naive", "expand-fifos"}
	rank := map[string]int{}
	for i, n := range canonical {
		rank[n] = i
	}
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		ri, iOK := rank[names[i]]
		rj, jOK := rank[names[j]]
		switch {
		case iOK && jOK:
			return ri < rj
		case iOK:
			return true
		case jOK:
			return false
		default:
			return names[i] < names[j]
		}
	})
	return names
}

// Lookup resolves one pass spec of the form "name" or "name=arg".
func Lookup(spec string) (Pass, error) {
	name, arg := spec, ""
	if i := strings.IndexByte(spec, '='); i >= 0 {
		name, arg = spec[:i], spec[i+1:]
	}
	f, ok := factories[strings.TrimSpace(name)]
	if !ok {
		return nil, fmt.Errorf("passes: unknown pass %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return f(strings.TrimSpace(arg))
}

// Parse resolves a comma-separated pass list ("dedup,balance"). The empty
// string is the paper's default pipeline and parses to nil, which
// pipestruct runs as a single balance pass. "none" is the empty pipeline:
// it parses to an empty, non-nil list and must stand alone. Every element
// of a list must name a pass, so "," is an error, not the empty pipeline.
func Parse(list string) ([]Pass, error) {
	if list == "" {
		return nil, nil
	}
	if strings.TrimSpace(list) == "none" {
		return []Pass{}, nil
	}
	specs := strings.Split(list, ",")
	ps := make([]Pass, 0, len(specs))
	for _, spec := range specs {
		switch spec = strings.TrimSpace(spec); spec {
		case "":
			return nil, fmt.Errorf("passes: empty pass name in %q", list)
		case "none":
			return nil, fmt.Errorf("passes: none is the empty pipeline and cannot be combined with other passes (%q)", list)
		}
		p, err := Lookup(spec)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}
