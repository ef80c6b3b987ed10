package ritm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// facadeAllowlist names the ritm.go exports that no program under cmd/ or
// examples/ names and no other ritm.go declaration uses, each with the
// reason it stays. Anything else the facade exports must have a user.
var facadeAllowlist = map[string]string{
	"Publisher":           "type of CAConfig.Publisher",
	"Status":              "returned by RA.Status and RA.StatusEncoded",
	"Proof":               "type of Status.Proof",
	"FreshnessStatement":  "parameter of Publisher.PublishFreshness",
	"Verifier":            "returned by ClientConn.Verifier",
	"FetcherStats":        "returned by Fetcher.Stats",
	"InterceptSession":    "parameter of InterceptConfig.OnSession",
	"InterceptStats":      "returned by Interceptor.Stats",
	"TopologyStats":       "returned by Topology.Stats",
	"ShardedOriginStats":  "returned by ShardedOrigin.Stats",
	"FollowerStats":       "returned by Follower.Stats",
	"FollowerLoop":        "returned by Follower.Start",
	"ReplicationResponse": "returned by Replicator.Replicate, so an implementer names it",
	"MisbehaviorProof":    "returned by Auditor.Observe; ROADMAP item 4 decides the auditor",
	"RootSource":          "the auditor's source interface; ROADMAP item 4 decides the auditor",
	"NewShardedAuthority": "the §VIII expiry shards; ROADMAP item 5 decides whether they are wired or deleted",
}

// TestFacadeNamesHaveAUser keeps the facade from growing back: every
// exported name ritm.go declares is named as ritm.<Name> by a non-test file
// under cmd/ or examples/, used by another ritm.go declaration, or listed
// in facadeAllowlist with a reason. It parses only, so it stays fast.
func TestFacadeNamesHaveAUser(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "ritm.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Each function and each type, const or var spec is one declaration:
	// the exported names it declares and the identifiers it uses.
	type decl struct {
		names []string
		uses  map[string]bool
	}
	var decls []decl
	collect := func(names []*ast.Ident, node ast.Node) {
		d := decl{uses: map[string]bool{}}
		for _, n := range names {
			if n.IsExported() {
				d.names = append(d.names, n.Name)
			}
		}
		ast.Inspect(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// ra.Fetcher names the internal type, not the facade alias.
				ast.Inspect(n.X, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						d.uses[id.Name] = true
					}
					return true
				})
				return false
			case *ast.Ident:
				d.uses[n.Name] = true
			}
			return true
		})
		for _, n := range names {
			delete(d.uses, n.Name)
		}
		decls = append(decls, d)
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			collect([]*ast.Ident{d.Name}, d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					collect([]*ast.Ident{s.Name}, s)
				case *ast.ValueSpec:
					collect(s.Names, s)
				}
			}
		}
	}

	var programs strings.Builder
	for _, dir := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			programs.Write(src)
			programs.WriteByte('\n')
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	src := programs.String()

	declared := map[string]bool{}
	for i, d := range decls {
		for _, name := range d.names {
			declared[name] = true
			named := regexp.MustCompile(`\britm\.` + name + `\b`).MatchString(src)
			usedInFacade := false
			for j, other := range decls {
				if j != i && other.uses[name] {
					usedInFacade = true
				}
			}
			reason, allowed := facadeAllowlist[name]
			switch {
			case allowed && (named || usedInFacade):
				t.Errorf("ritm.%s has a user; drop its allowlist entry (%q)", name, reason)
			case !allowed && !named && !usedInFacade:
				t.Errorf("ritm.%s: no program under cmd/ or examples/ names it and no other ritm.go declaration uses it; delete it or allowlist it with a reason", name)
			}
		}
	}
	for name := range facadeAllowlist {
		if !declared[name] {
			t.Errorf("allowlisted ritm.%s is not declared in ritm.go", name)
		}
	}
}
