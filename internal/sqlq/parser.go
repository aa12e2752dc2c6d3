package sqlq

import (
	"fmt"
	"strconv"
	"strings"

	"svqact/internal/core"
	"svqact/internal/detect"
)

// Produce is one PRODUCE item of the PROCESS clause: a field name optionally
// bound to a model (clipID has no model; obj and act do).
type Produce struct {
	Field string
	Model string
}

// Statement is a parsed query.
type Statement struct {
	// Explain is true when the statement is prefixed with EXPLAIN: the
	// engine plans and executes the query as usual but the caller is asked
	// to surface the predicate-ordering plan instead of (or alongside) the
	// result sequences.
	Explain bool
	// Source is the identifier in the PROCESS clause (a video or dataset).
	Source string
	// Produces lists the PRODUCE items in order.
	Produces []Produce
	// Action is the queried action (from the act = '...' predicate), when
	// the statement is expressible in the basic one-action form.
	Action string
	// Objects are the queried object types (from obj.include/inc).
	Objects []string
	// Clauses is the full conjunctive-normal-form view of the WHERE clause
	// (paper footnotes 2-4): OR groups become multi-atom clauses, relation
	// predicates become relation atoms.
	Clauses []core.Clause
	// SelectRank is true when the SELECT list includes RANK(...).
	SelectRank bool
	// OrderByRank is true when an ORDER BY RANK(...) clause is present.
	OrderByRank bool
	// Limit is the LIMIT K value; 0 means absent.
	Limit int
}

// Offline reports whether the statement requests ranked top-k processing
// (the offline engine) rather than streaming evaluation.
func (s *Statement) Offline() bool { return s.OrderByRank || s.Limit > 0 || s.SelectRank }

// Query maps the statement onto the engine's basic query model. Valid only
// when Basic reports true.
func (s *Statement) Query() core.Query {
	return core.Query{Objects: append([]string(nil), s.Objects...), Action: s.Action}
}

// CNF returns the statement's full extended-query form.
func (s *Statement) CNF() core.CNF {
	return core.CNF{Clauses: append([]core.Clause(nil), s.Clauses...)}
}

// hasRelations reports whether any clause contains a relation atom.
func (s *Statement) hasRelations() bool {
	for _, c := range s.Clauses {
		for _, a := range c.Atoms {
			if a.Kind == core.RelationPredicate {
				return true
			}
		}
	}
	return false
}

// Basic reports whether the WHERE clause is expressible as the basic model
// (a conjunction of object atoms plus exactly one action atom): every
// clause is a single atom, no relations, one action.
func (s *Statement) Basic() bool {
	actions := 0
	for _, c := range s.Clauses {
		if len(c.Atoms) != 1 {
			return false
		}
		switch c.Atoms[0].Kind {
		case core.ActionPredicate:
			actions++
		case core.ObjectPredicate:
		default:
			return false
		}
	}
	return actions == 1
}

// Plan is the execution decision for a statement.
type Plan struct {
	// Online selects SVAQ/SVAQD streaming execution; otherwise the offline
	// RVAQ path runs against an ingested index.
	Online bool
	// Extended marks statements beyond the basic one-action conjunction
	// (OR groups, multiple actions, relations); they run through the
	// engine's RunCNF entry into the same evaluation loop.
	Extended bool
	// Explain asks the caller to surface the predicate-ordering plan the
	// execution ran with (EXPLAIN prefix).
	Explain bool
	Query   core.Query
	CNF     core.CNF
	Source  string
	// K is the top-k bound for offline plans (defaulted to 10 when the
	// statement ranks but gives no LIMIT).
	K int
}

// Plan validates the statement and produces its execution plan.
func (s *Statement) Plan() (Plan, error) {
	if s.Source == "" {
		return Plan{}, fmt.Errorf("sqlq: statement has no PROCESS source")
	}
	p := Plan{Online: !s.Offline(), Explain: s.Explain, Source: s.Source, K: s.Limit, CNF: s.CNF()}
	if s.Basic() {
		p.Query = s.Query()
		if err := p.Query.Validate(); err != nil {
			return Plan{}, err
		}
	} else {
		p.Extended = true
		if err := p.CNF.Validate(); err != nil {
			return Plan{}, err
		}
		if !p.Online && s.hasRelations() {
			return Plan{}, fmt.Errorf("sqlq: ranked (ORDER BY/LIMIT) queries do not support relation predicates (ingestion does not materialise per-pair geometry)")
		}
	}
	if !p.Online && p.K == 0 {
		p.K = 10
	}
	return p, nil
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
}

// Parse parses one statement of the dialect.
func Parse(input string) (*Statement, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	if !p.cur().isPunct(";") && p.cur().kind != tokEOF {
		return nil, p.errf("trailing input")
	}
	return st, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	return fmt.Errorf("sqlq: %s at offset %d (got %s)", msg, p.cur().pos, p.cur().describe())
}

func (p *parser) expectKeyword(kw string) error {
	if !p.cur().isKeyword(kw) {
		return p.errf("expected %s", strings.ToUpper(kw))
	}
	p.next()
	return nil
}

func (p *parser) expectPunct(s string) error {
	if !p.cur().isPunct(s) {
		return p.errf("expected %q", s)
	}
	p.next()
	return nil
}

func (p *parser) ident() (string, error) {
	if p.cur().kind != tokIdent {
		return "", p.errf("expected identifier")
	}
	return p.next().text, nil
}

func (p *parser) statement() (*Statement, error) {
	st := &Statement{}
	if p.cur().isKeyword("EXPLAIN") {
		p.next()
		st.Explain = true
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if err := p.selectList(st); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if err := p.fromClause(st); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("WHERE"); err != nil {
		return nil, err
	}
	if err := p.whereClause(st); err != nil {
		return nil, err
	}
	if p.cur().isKeyword("ORDER") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		if err := p.rankCall(); err != nil {
			return nil, err
		}
		st.OrderByRank = true
	}
	if p.cur().isKeyword("LIMIT") {
		p.next()
		if p.cur().kind != tokNumber {
			return nil, p.errf("expected LIMIT count")
		}
		n, err := strconv.Atoi(p.next().text)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("sqlq: LIMIT must be a positive integer")
		}
		st.Limit = n
	}
	return st, nil
}

// selectList parses: MERGE(clipID) AS Sequence [, RANK(act, obj)]
func (p *parser) selectList(st *Statement) error {
	if err := p.expectKeyword("MERGE"); err != nil {
		return err
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	if _, err := p.ident(); err != nil { // clipID
		return err
	}
	if err := p.expectPunct(")"); err != nil {
		return err
	}
	if p.cur().isKeyword("AS") {
		p.next()
		if _, err := p.ident(); err != nil {
			return err
		}
	}
	if p.cur().isPunct(",") {
		p.next()
		if err := p.rankCall(); err != nil {
			return err
		}
		st.SelectRank = true
	}
	return nil
}

// rankCall parses: RANK(ident [, ident]*)
func (p *parser) rankCall() error {
	if err := p.expectKeyword("RANK"); err != nil {
		return err
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	for {
		if _, err := p.ident(); err != nil {
			return err
		}
		if p.cur().isPunct(",") {
			p.next()
			continue
		}
		break
	}
	return p.expectPunct(")")
}

// fromClause parses:
// ( PROCESS source PRODUCE field [USING Model] [, field [USING Model]]* )
func (p *parser) fromClause(st *Statement) error {
	if err := p.expectPunct("("); err != nil {
		return err
	}
	if err := p.expectKeyword("PROCESS"); err != nil {
		return err
	}
	src, err := p.ident()
	if err != nil {
		return err
	}
	st.Source = src
	if err := p.expectKeyword("PRODUCE"); err != nil {
		return err
	}
	for {
		field, err := p.ident()
		if err != nil {
			return err
		}
		pr := Produce{Field: field}
		if p.cur().isKeyword("USING") {
			p.next()
			model, err := p.ident()
			if err != nil {
				return err
			}
			pr.Model = model
		}
		st.Produces = append(st.Produces, pr)
		if p.cur().isPunct(",") {
			p.next()
			continue
		}
		break
	}
	return p.expectPunct(")")
}

// whereClause parses a conjunction of predicate terms:
//
//	term       := predicate | '(' predicate (OR predicate)* ')'
//	predicate  := act = 'name' | obj.include('a', 'b') | obj.inc('a')
//	            | rel.leftOf('a','b') | rel.rightOf('a','b') | rel.near('a','b')
//	            | field = Action('act', 'obj'...)
//
// An OR group becomes one CNF clause; a bare obj.include with several types
// expands into one clause per type (a conjunction, per the basic model).
func (p *parser) whereClause(st *Statement) error {
	for {
		if err := p.term(st); err != nil {
			return err
		}
		if p.cur().isKeyword("AND") {
			p.next()
			continue
		}
		break
	}
	actions := 0
	for _, c := range st.Clauses {
		for _, a := range c.Atoms {
			if a.Kind == core.ActionPredicate {
				actions++
			}
		}
	}
	if actions == 0 {
		return fmt.Errorf("sqlq: WHERE clause specifies no action predicate")
	}
	if st.Basic() {
		for _, c := range st.Clauses {
			a := c.Atoms[0]
			if a.Kind == core.ActionPredicate {
				st.Action = a.Name
			} else {
				st.Objects = append(st.Objects, a.Name)
			}
		}
	}
	return nil
}

// term parses one conjunct: a single predicate or a parenthesised OR group.
func (p *parser) term(st *Statement) error {
	if p.cur().isPunct("(") {
		p.next()
		var clause core.Clause
		for {
			atoms, err := p.atoms()
			if err != nil {
				return err
			}
			clause.Atoms = append(clause.Atoms, atoms...)
			if p.cur().isKeyword("OR") {
				p.next()
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return err
		}
		st.Clauses = append(st.Clauses, clause)
		return nil
	}
	atoms, err := p.atoms()
	if err != nil {
		return err
	}
	for _, a := range atoms {
		st.Clauses = append(st.Clauses, core.Clause{Atoms: []core.Atom{a}})
	}
	return nil
}

// atoms parses one predicate into its atom expansion.
func (p *parser) atoms() ([]core.Atom, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	switch {
	case p.cur().isPunct("="):
		p.next()
		// Either act = 'name' or det = Action('a', 'o1', ...).
		if p.cur().kind == tokString {
			return []core.Atom{core.ActionAtom(p.next().text)}, nil
		}
		if p.cur().isKeyword("Action") {
			p.next()
			return p.actionCall()
		}
		return nil, p.errf("expected action name or Action(...)")
	case p.cur().isPunct("."):
		p.next()
		method, err := p.ident()
		if err != nil {
			return nil, err
		}
		switch {
		case strings.EqualFold(method, "include") || strings.EqualFold(method, "inc"):
			var out []core.Atom
			err := p.stringArgs(func(s string) { out = append(out, core.ObjectAtom(s)) })
			return out, err
		case strings.EqualFold(method, "leftOf"):
			return p.relationCall(detect.LeftOf)
		case strings.EqualFold(method, "rightOf"):
			return p.relationCall(detect.RightOf)
		case strings.EqualFold(method, "near"):
			return p.relationCall(detect.Near)
		default:
			return nil, fmt.Errorf("sqlq: unknown predicate method %s.%s", name, method)
		}
	default:
		return nil, p.errf("expected '=' or '.' after %q", name)
	}
}

// relationCall parses rel.X('a', 'b').
func (p *parser) relationCall(rel detect.Relation) ([]core.Atom, error) {
	var args []string
	if err := p.stringArgs(func(s string) { args = append(args, s) }); err != nil {
		return nil, err
	}
	if len(args) != 2 {
		return nil, fmt.Errorf("sqlq: relation %s needs exactly two object arguments", rel)
	}
	return []core.Atom{core.RelationAtom(rel, args[0], args[1])}, nil
}

// actionCall parses Action('act' [, 'obj']*): the first argument is the
// action, the rest are object predicates (the paper's first-page syntax).
func (p *parser) actionCall() ([]core.Atom, error) {
	var out []core.Atom
	first := true
	err := p.stringArgs(func(s string) {
		if first {
			out = append(out, core.ActionAtom(s))
			first = false
			return
		}
		out = append(out, core.ObjectAtom(s))
	})
	return out, err
}

func (p *parser) stringArgs(add func(string)) error {
	if err := p.expectPunct("("); err != nil {
		return err
	}
	for {
		if p.cur().kind != tokString {
			return p.errf("expected string literal")
		}
		add(p.next().text)
		if p.cur().isPunct(",") {
			p.next()
			continue
		}
		break
	}
	return p.expectPunct(")")
}
