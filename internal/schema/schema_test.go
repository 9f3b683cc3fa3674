package schema

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder("books")
	book := b.Root("book")
	title := b.Element(book, "title")
	author := b.Element(book, "author")
	first := b.Element(author, "first")
	id := b.Attribute(author, "id")
	tr, err := b.Tree()
	if err != nil {
		t.Fatalf("Tree: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tr.Len() != 5 {
		t.Errorf("Len = %d, want 5", tr.Len())
	}
	if tr.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4", tr.NumEdges())
	}
	if tr.Root() != book {
		t.Errorf("Root = %v, want book", tr.Root())
	}
	if book.Pre != 0 || book.Depth != 0 {
		t.Errorf("book labels Pre=%d Depth=%d, want 0,0", book.Pre, book.Depth)
	}
	if title.Depth != 1 || first.Depth != 2 {
		t.Errorf("depths title=%d first=%d, want 1,2", title.Depth, first.Depth)
	}
	if id.Kind != KindAttribute || !id.IsLeaf() {
		t.Errorf("id should be a leaf attribute")
	}
	if author.SubtreeSize() != 3 {
		t.Errorf("author subtree size = %d, want 3", author.SubtreeSize())
	}
	if !book.IsAncestorOf(first) || first.IsAncestorOf(book) {
		t.Errorf("ancestry wrong for book/first")
	}
	if book.IsAncestorOf(book) {
		t.Errorf("node must not be its own ancestor")
	}
	if got := first.PathString(); got != "/book/author/first" {
		t.Errorf("PathString = %q", got)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("x")
	if _, err := b.Tree(); err == nil {
		t.Errorf("Tree on empty builder should fail")
	}

	b2 := NewBuilder("y")
	b2.Root("r")
	if _, err := b2.Tree(); err != nil {
		t.Fatalf("Tree: %v", err)
	}
	if _, err := b2.Tree(); err == nil {
		t.Errorf("second Tree call should fail")
	}

	mustPanic(t, "double root", func() {
		b := NewBuilder("z")
		b.Root("a")
		b.Root("b")
	})
	mustPanic(t, "child of attribute", func() {
		b := NewBuilder("z")
		r := b.Root("a")
		at := b.Attribute(r, "x")
		b.Element(at, "y")
	})
	mustPanic(t, "use after Tree", func() {
		b := NewBuilder("z")
		r := b.Root("a")
		b.MustTree()
		b.Element(r, "y")
	})
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestParseSpec(t *testing.T) {
	tests := []struct {
		spec  string
		nodes int
		str   string // expected round-trip (empty = same as spec)
	}{
		{"book", 1, ""},
		{"book(title,author)", 3, ""},
		{"book(title,author(first,last),isbn@)", 6, ""},
		{"a(b(c(d(e))))", 5, ""},
		{" a ( b , c ) ", 3, "a(b,c)"},
		{"person(name:string,age:integer)", 3, "person(name,age)"},
	}
	for _, tc := range tests {
		tr, err := ParseSpec(tc.spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("ParseSpec(%q).Validate: %v", tc.spec, err)
		}
		if tr.Len() != tc.nodes {
			t.Errorf("ParseSpec(%q).Len = %d, want %d", tc.spec, tr.Len(), tc.nodes)
		}
		want := tc.str
		if want == "" {
			want = tc.spec
		}
		if got := tr.String(); got != want {
			t.Errorf("ParseSpec(%q).String = %q, want %q", tc.spec, got, want)
		}
	}
}

func TestParseSpecTypes(t *testing.T) {
	tr := MustParseSpec("person(name:string,age:integer,id@:token)")
	if got := tr.Find("name").Type; got != "string" {
		t.Errorf("name type = %q", got)
	}
	if got := tr.Find("age").Type; got != "integer" {
		t.Errorf("age type = %q", got)
	}
	id := tr.Find("id")
	if id.Kind != KindAttribute || id.Type != "token" {
		t.Errorf("id = %v kind=%v type=%q", id, id.Kind, id.Type)
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"", "(", "a(", "a(b", "a(b,,c)", "a)b", "a(b)c", "a@(b)", "@", "a(b@(c))",
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q): expected error", spec)
		}
	}
}

func TestRepositoryAdd(t *testing.T) {
	r := NewRepository()
	t1 := MustParseSpec("a(b,c)")
	t2 := MustParseSpec("x(y(z))")
	r.MustAdd(t1)
	r.MustAdd(t2)
	if r.NumTrees() != 2 || r.Len() != 6 {
		t.Fatalf("trees=%d nodes=%d, want 2,6", r.NumTrees(), r.Len())
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for i, n := range r.Nodes() {
		if n.ID != i {
			t.Errorf("node %d has ID %d", i, n.ID)
		}
	}
	if err := r.Add(t1); err == nil {
		t.Errorf("adding a tree twice should fail")
	}
	if err := r.Add(nil); err == nil {
		t.Errorf("adding nil should fail")
	}
	st := r.Stats()
	if st.Trees != 2 || st.Nodes != 6 || st.MaxDepth != 2 || st.MaxTree != 3 || st.MinTree != 3 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestDistanceAndPath(t *testing.T) {
	tr := MustParseSpec("lib(address,book(authorName,data(title),shelf))")
	lib := tr.Find("lib")
	addr := tr.Find("address")
	title := tr.Find("title")
	shelf := tr.Find("shelf")
	an := tr.Find("authorName")

	tests := []struct {
		a, b *Node
		d    int
	}{
		{lib, lib, 0},
		{lib, addr, 1},
		{lib, title, 3},
		{addr, title, 4},
		{title, shelf, 3},
		{an, title, 3},
		{title, an, 3},
	}
	for _, tc := range tests {
		if got := tr.Distance(tc.a, tc.b); got != tc.d {
			t.Errorf("Distance(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.d)
		}
		path := tr.PathBetween(tc.a, tc.b)
		if len(path) != tc.d+1 {
			t.Errorf("PathBetween(%v,%v) has %d nodes, want %d", tc.a, tc.b, len(path), tc.d+1)
		}
		if path[0] != tc.a || path[len(path)-1] != tc.b {
			t.Errorf("PathBetween(%v,%v) endpoints wrong: %v", tc.a, tc.b, path)
		}
		// consecutive path nodes must be adjacent (parent/child)
		for i := 1; i < len(path); i++ {
			u, v := path[i-1], path[i]
			if u.Parent() != v && v.Parent() != u {
				t.Errorf("PathBetween(%v,%v): %v and %v not adjacent", tc.a, tc.b, u, v)
			}
		}
	}
}

func TestLCA(t *testing.T) {
	tr := MustParseSpec("r(a(x,y(q)),b(z))")
	get := func(name string) *Node { return tr.Find(name) }
	tests := []struct{ a, b, want string }{
		{"x", "q", "a"},
		{"x", "y", "a"},
		{"q", "z", "r"},
		{"a", "x", "a"},
		{"r", "z", "r"},
		{"q", "q", "q"},
	}
	for _, tc := range tests {
		if got := LCA(get(tc.a), get(tc.b)); got.Name != tc.want {
			t.Errorf("LCA(%s,%s) = %v, want %s", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestWalkSkipsSubtree(t *testing.T) {
	tr := MustParseSpec("r(a(x,y),b(z))")
	var visited []string
	Walk(tr, func(n *Node) bool {
		visited = append(visited, n.Name)
		return n.Name != "a" // skip a's children
	})
	want := "r a b z"
	if got := strings.Join(visited, " "); got != want {
		t.Errorf("Walk order = %q, want %q", got, want)
	}
}

func TestLeaves(t *testing.T) {
	tr := MustParseSpec("r(a(x,y),b(z),c)")
	var names []string
	for _, n := range Leaves(tr) {
		names = append(names, n.Name)
	}
	if got := strings.Join(names, " "); got != "x y z c" {
		t.Errorf("Leaves = %q", got)
	}
}

func TestClone(t *testing.T) {
	orig := MustParseSpec("book(title,author(first,last),isbn@)")
	cp := orig.Clone()
	if err := cp.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	if cp.String() != orig.String() {
		t.Errorf("clone = %q, want %q", cp.String(), orig.String())
	}
	if cp.ID != -1 {
		t.Errorf("clone ID = %d, want -1", cp.ID)
	}
	// Clones must not share nodes.
	if cp.Root() == orig.Root() {
		t.Errorf("clone shares root with original")
	}
	if cp.Find("isbn").Kind != KindAttribute {
		t.Errorf("clone lost attribute kind")
	}
}

func TestNames(t *testing.T) {
	tr := MustParseSpec("b(a,c(a),b)")
	got := tr.Names()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("Names = %v", got)
	}
}

// randomTree builds a random tree with n nodes for property tests.
func randomTree(rng *rand.Rand, n int) *Tree {
	if n < 1 {
		n = 1
	}
	b := NewBuilder("rand")
	nodes := []*Node{b.Root("n0")}
	for i := 1; i < n; i++ {
		parent := nodes[rng.Intn(len(nodes))]
		var child *Node
		if rng.Intn(8) == 0 {
			// retry until parent is an element (attributes are leaves)
			for parent.Kind == KindAttribute {
				parent = nodes[rng.Intn(len(nodes))]
			}
			child = b.Attribute(parent, "a"+string(rune('a'+rng.Intn(26))))
		} else {
			for parent.Kind == KindAttribute {
				parent = nodes[rng.Intn(len(nodes))]
			}
			child = b.Element(parent, "e"+string(rune('a'+rng.Intn(26))))
		}
		nodes = append(nodes, child)
	}
	return b.MustTree()
}

func TestRandomTreesValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		tr := randomTree(rng, 1+rng.Intn(60))
		if err := tr.Validate(); err != nil {
			t.Fatalf("random tree %d invalid: %v\n%s", i, err, FormatIndented(tr))
		}
	}
}

// Property: Distance is a metric on tree nodes (symmetric, zero iff equal,
// triangle inequality) and agrees with depth arithmetic through the LCA.
func TestDistanceMetricProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 1+int(size)%50)
		ns := tr.Nodes()
		for trial := 0; trial < 10; trial++ {
			a := ns[rng.Intn(len(ns))]
			b := ns[rng.Intn(len(ns))]
			c := ns[rng.Intn(len(ns))]
			dab, dba := tr.Distance(a, b), tr.Distance(b, a)
			if dab != dba {
				return false
			}
			if (dab == 0) != (a == b) {
				return false
			}
			if dab > tr.Distance(a, c)+tr.Distance(c, b) {
				return false
			}
			l := LCA(a, b)
			if dab != a.Depth+b.Depth-2*l.Depth {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: spec rendering round-trips through ParseSpec.
func TestSpecRoundTripProperty(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 1+int(size)%40)
		spec := tr.String()
		back, err := ParseSpec(spec)
		if err != nil {
			return false
		}
		return back.String() == spec && back.Len() == tr.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: subtree sizes computed at freeze match a recount, and preorder
// intervals nest properly.
func TestSubtreeIntervalProperty(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 1+int(size)%50)
		for _, n := range tr.Nodes() {
			count := 0
			Walk(tr, func(m *Node) bool {
				if m == n || n.IsAncestorOf(m) {
					count++
				}
				return true
			})
			if count != n.SubtreeSize() {
				return false
			}
			// every descendant's Pre must fall in [n.Pre, n.Pre+size)
			for _, m := range tr.Nodes() {
				in := m.Pre >= n.Pre && m.Pre < n.Pre+n.SubtreeSize()
				if in != (m == n || n.IsAncestorOf(m)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// pathStringLoop is the historical PathString (reverse Path, then
// concatenate level by level): the reference AppendPath is pinned to.
func pathStringLoop(n *Node) string {
	out := ""
	for _, p := range n.Path() {
		out += "/" + p
	}
	return out
}

// Property: AppendPath and PathString agree with the historical loop on
// every node of generated trees — single-node trees, bushy trees and
// chains deeper than PathString's stack buffer — and AppendPath leaves
// what dst already held alone.
func TestAppendPathMatchesLoopProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trees := []*Tree{randomTree(rng, 1)}
	for i := 0; i < 50; i++ {
		trees = append(trees, randomTree(rng, 1+rng.Intn(60)))
	}
	chain := NewBuilder("chain")
	n := chain.Root("root")
	for d := 0; d < 40; d++ {
		n = chain.Element(n, strings.Repeat("x", 1+d%7)+"é<&")
	}
	trees = append(trees, chain.MustTree())
	for _, tr := range trees {
		for _, n := range tr.Nodes() {
			want := pathStringLoop(n)
			if got := n.PathString(); got != want {
				t.Fatalf("PathString = %q, want %q", got, want)
			}
			if got := string(n.AppendPath([]byte("pre"))); got != "pre"+want {
				t.Fatalf("AppendPath = %q, want %q", got, "pre"+want)
			}
		}
	}
	if depth := len(n.Path()); depth < 32 {
		t.Fatalf("chain depth %d does not reach 32", depth)
	}
}

func TestPathAllocations(t *testing.T) {
	leaf := MustParseSpec("lib(book(data(title)))").Nodes()[3]
	buf := make([]byte, 0, 64)
	if got := testing.AllocsPerRun(100, func() { buf = leaf.AppendPath(buf[:0]) }); got != 0 {
		t.Errorf("AppendPath into a buffer with capacity: %v allocs, want 0", got)
	}
	var s string
	if got := testing.AllocsPerRun(100, func() { s = leaf.PathString() }); got != 1 {
		t.Errorf("PathString: %v allocs, want 1", got)
	}
	if s != "/lib/book/data/title" {
		t.Errorf("PathString = %q", s)
	}
}
