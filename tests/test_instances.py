import numpy as np
import pytest

from confdive.instances import (
    Assignment,
    ConstraintDef,
    Infeasible,
    InstanceFormatError,
    InstanceValidationError,
    MilpInstance,
    OracleTooLarge,
    VarDef,
    brute_force_solve,
    check_feasibility,
    generate_covering,
    generate_knapsack,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from oracles import enumerate_binary_optimum


def binary_var(name, obj):
    return VarDef(name, "binary", 0.0, 1.0, obj)


class TestParsing:
    def test_minimal_document(self):
        inst = parse_instance("VAR x binary 0 1 1.0\n")
        assert (inst.n, inst.m, int(inst.integer_mask().sum())) == (1, 0, 1)
        assert inst.name == "unnamed"

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\nNAME t\nVAR x binary 0 1 2.0\n  # trailing\n"
        assert parse_instance(text).name == "t"

    def test_eq_row_becomes_two_le_rows(self):
        text = "VAR a binary 0 1 1\nVAR b binary 0 1 1\nCON r eq 1 0:1 1:1\n"
        inst = parse_instance(text)
        assert inst.m == 2
        first, second = inst.constraints
        assert first.terms == ((0, 1.0), (1, 1.0)) and first.rhs == 1.0
        assert second.terms == ((0, -1.0), (1, -1.0)) and second.rhs == -1.0

    def test_ge_row_negated(self):
        inst = parse_instance("VAR a binary 0 1 1\nCON r ge 1 0:1\n")
        assert inst.constraints[0].terms == ((0, -1.0),)
        assert inst.constraints[0].rhs == -1.0

    def test_bad_index_names_constraint(self):
        text = "VAR a binary 0 1 1\nVAR b binary 0 1 1\nVAR c binary 0 1 1\nCON cap le 1 5:1\n"
        with pytest.raises(InstanceValidationError) as err:
            parse_instance(text)
        assert "cap" in str(err.value)
        assert "5" in str(err.value)
        assert err.value.path.startswith("constraints[0]")

    def test_syntax_error_carries_line(self):
        with pytest.raises(InstanceFormatError) as err:
            parse_instance("VAR x binary 0 1 1\nBOGUS line\n")
        assert err.value.line == 2

    def test_bad_number_reports_column(self):
        with pytest.raises(InstanceFormatError) as err:
            parse_instance("VAR x binary 0 zz 1\n")
        assert err.value.line == 1
        assert err.value.column > 1

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("VAR\tx  binary \t 0   zz 1\n", 1, 21),  # bad ub after tabs and space runs
            ("VAR x  bogus 0 1 1\n", 1, 8),  # unknown kind
            (
                "VAR a binary 0 1 1\nVAR b binary 0 1 1\nVAR c binary 0 1 1\n"
                "CON r le 1 0:1  1:2\t2:x\n",
                4,
                21,
            ),  # bad third CON term
            ("VAR a binary 0 1 1\n  CON  r le  1 0:1 1\n", 2, 20),  # term without colon
            ("NAME a\nVAR x binary 0 1 1\nNAME b\n", 3, 1),  # duplicate NAME
            ("NAME a b\nVAR x binary 0 1 1\n", 1, 1),  # NAME arity
            ("VAR x binary 0 1\n", 1, 1),  # VAR arity
            ("VAR x binary 0 1 1\nCON r le\n", 2, 1),  # CON arity
            ("VAR x binary 0 1 1\nCON r  lt 1 0:1\n", 2, 8),  # unknown sense
            ("VAR x binary 0 1 1\nCON r le 1 0:1 y:1\n", 2, 16),  # bad variable index
        ],
    )
    def test_error_columns_are_exact(self, text, line, column):
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(text)
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("VAR x binary 0 1 nan\n", 1, 18),  # objective
            ("VAR x binary 0 1 1\nCON r le  NaN 0:1\n", 2, 11),  # rhs
            ("VAR x binary 0 1 1\nCON r le 1 0:nan\n", 2, 12),  # coefficient
        ],
    )
    def test_nan_token_rejected_with_line_and_column(self, text, line, column):
        with pytest.raises(InstanceFormatError, match="NaN") as err:
            parse_instance(text)
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize(
        "text, path",
        [
            ("VAR x continuous 0 1 inf\n", "vars[0].obj"),
            ("VAR x binary 0 1 1\nVAR y binary 0 1 1\nCON r le -inf 0:1\n", "constraints[0].rhs"),
            ("VAR x binary 0 1 1\nVAR y binary 0 1 1\nCON r ge 1 0:1 1:-inf\n", "constraints[0].terms[1]"),
        ],
    )
    def test_infinite_value_rejected_with_field_path(self, text, path):
        with pytest.raises(InstanceValidationError, match="finite") as err:
            parse_instance(text)
        assert err.value.path == path

    def test_term_without_colon_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("VAR x binary 0 1 1\nCON r le 1 0\n")

    @pytest.mark.parametrize(
        "text",
        [
            "VAR x binary 0 2 1\n",  # binary bounds must be (0, 1)
            "VAR x continuous 3 1 1\n",  # lb > ub
            "VAR x continuous -inf -inf 1\n",  # no finite value
            "VAR x continuous inf inf 1\n",
            "VAR x binary 0 1 1\nVAR x binary 0 1 1\n",  # duplicate name
            "",  # no variables
            "NAME ../x\nVAR x binary 0 1 1\n",  # a name must not leave its directory
            "NAME a,b\nVAR x binary 0 1 1\n",  # nor split a CSV field
            "NAME .hidden\nVAR x binary 0 1 1\n",  # nor start with a dot
        ],
    )
    def test_semantic_rejections(self, text):
        with pytest.raises(InstanceValidationError):
            parse_instance(text)

    @pytest.mark.parametrize(
        "text, path",
        [
            ("VAR sol binary 0 1 1\n", "vars[0].name"),  # would read back as a second SOL line
            ("VAR x binary 0 1 1\nVAR Sol binary 0 1 1\n", "vars[1].name"),
            ("VAR x binary 0 1 1\nVAR #x binary 0 1 1\n", "vars[1].name"),  # a comment in a solution
            ("VAR x binary 0 1 1\nCON #r le 1 0:1\n", "constraints[0].name"),
        ],
    )
    def test_names_the_solution_format_cannot_read_back_are_rejected(self, text, path):
        with pytest.raises(InstanceValidationError) as err:
            parse_instance(text)
        assert err.value.path == path

    @pytest.mark.parametrize(
        "var_name, con_name, path",
        [
            ("x y", "r", "vars[0].name"),
            ("x", "row 1", "constraints[0].name"),
            ("x", "", "constraints[0].name"),
            ("SOL", "r", "vars[0].name"),
        ],
    )
    def test_api_names_that_do_not_serialize_are_rejected(self, var_name, con_name, path):
        with pytest.raises(InstanceValidationError) as err:
            MilpInstance("t", (binary_var(var_name, 1.0),), (ConstraintDef(con_name, ((0, 1.0),), 1.0),))
        assert err.value.path == path

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("family", ["knapsack", "covering"])
    def test_round_trip(self, family, seed):
        if family == "knapsack":
            inst = generate_knapsack(seed, 5 + seed, 2)
        else:
            inst = generate_covering(seed, 8 + seed, 4)
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert serialize_instance(again) == text

    def test_infinite_bounds_round_trip(self):
        inst = MilpInstance(
            "inf", (VarDef("x", "continuous", float("-inf"), float("inf"), 1.0),), ()
        )
        assert parse_instance(serialize_instance(inst)) == inst


class TestSolutionFormat:
    def test_round_trip(self):
        inst = generate_knapsack(3, 4, 1)
        values = np.array([1.0, 0.0, 1.0, 0.0])
        sol = Assignment(values, float(inst.objective_vector() @ values))
        text = serialize_solution(inst, sol)
        assert text.startswith("SOL ")
        back = parse_solution(text, inst)
        assert np.array_equal(back.values, sol.values)
        assert back.objective == sol.objective

    def test_objective_mismatch_rejected(self):
        inst = generate_knapsack(3, 2, 1)
        text = "SOL 123.0\nx0 1.0\nx1 0.0\n"
        with pytest.raises(InstanceValidationError):
            parse_solution(text, inst)

    def test_missing_variable_rejected(self):
        inst = generate_knapsack(3, 2, 1)
        with pytest.raises(InstanceValidationError):
            parse_solution("SOL 0.0\nx0 0.0\n", inst)

    def test_unknown_variable_rejected(self):
        inst = generate_knapsack(3, 2, 1)
        with pytest.raises(InstanceValidationError, match="unknown variable 'x9'") as err:
            parse_solution("SOL 0.0\nx0 0.0\nx1 0.0\nx9 0.0\n", inst)
        assert err.value.path == "vars"

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("SOL 0.0\n  x0 \t nope\nx1 0.0\n", 2, 8),  # bad value
            ("\tSOL   zero\nx0 0.0\nx1 0.0\n", 1, 8),  # bad objective
            ("SOL 0.0\nx0 0.0\nSOL 0.0\n", 3, 1),  # duplicate SOL
            ("SOL 0.0 1.0\nx0 0.0\nx1 0.0\n", 1, 1),  # SOL arity
            ("SOL 0.0\nx0 0.0 1.0\nx1 0.0\n", 2, 1),  # malformed value line
            ("SOL 0.0\nx0 0.0\nx0 1.0\nx1 0.0\n", 3, 1),  # duplicate value
            ("x0 0.0\nx1 0.0\n", 1, 1),  # missing SOL
        ],
    )
    def test_bad_value_column_is_exact(self, text, line, column):
        inst = generate_knapsack(3, 2, 1)
        with pytest.raises(InstanceFormatError) as err:
            parse_solution(text, inst)
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize(
        "head, path",
        [
            ("SOL 3.0\nx0 inf\nx1 -inf\n", "vars[0]"),  # c.x is NaN, so no objective check fires
            ("SOL inf\nx0 inf\n", "vars[0]"),
            ("SOL inf\n", "objective"),
        ],
    )
    def test_non_finite_rejected(self, head, path):
        inst = generate_covering(1, 8, 4)
        rest = "".join(f"{v.name} 1.0\n" for v in inst.vars if f"\n{v.name} " not in head)
        with pytest.raises(InstanceValidationError, match="not finite") as err:
            parse_solution(head + rest, inst)
        assert err.value.path == path


class TestFeasibility:
    # x binary, y integer in [0, 3]; row x - y <= 0. Each rejected point fails one check only.
    INST = MilpInstance(
        "feas",
        (binary_var("x", 1.0), VarDef("y", "integer", 0.0, 3.0, 1.0)),
        (ConstraintDef("r", ((0, 1.0), (1, -1.0)), 0.0),),
    )

    def test_feasible_point_accepted(self):
        assert check_feasibility(self.INST, np.array([1.0, 2.0]))

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, 2.0, 0.0],  # wrong shape
            [-1.0, 0.0],  # x below its lb
            [1.0, 4.0],  # y above its ub
            [0.0, 1.5],  # fractional integer
            [1.0, 0.0],  # row violated: 1 > 0
            [np.nan, 2.0],  # x not a number
            [1.0, np.nan],  # y not a number
        ],
    )
    def test_rejections(self, values):
        assert not check_feasibility(self.INST, np.array(values))


class TestGenerators:
    def test_knapsack_deterministic(self):
        a = serialize_instance(generate_knapsack(7, 10, 2))
        b = serialize_instance(generate_knapsack(7, 10, 2))
        assert a == b

    def test_knapsack_seed_changes_instance(self):
        assert serialize_instance(generate_knapsack(7, 10, 2)) != serialize_instance(
            generate_knapsack(8, 10, 2)
        )

    def test_knapsack_shape(self):
        inst = generate_knapsack(1, 3, 1)
        assert inst.n == 3 and inst.m == 1
        assert all(v.kind == "binary" for v in inst.vars)
        assert all(v.obj < 0 for v in inst.vars)  # minimization of negated values

    def test_knapsack_matches_exhaustive_enumeration(self):
        inst = generate_knapsack(1, 3, 1)
        expected = enumerate_binary_optimum(inst)
        got = brute_force_solve(inst)
        assert got.objective == pytest.approx(expected[0], abs=1e-12)

    def test_covering_deterministic(self):
        assert serialize_instance(generate_covering(3, 8, 4)) == serialize_instance(
            generate_covering(3, 8, 4)
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_covering_all_ones_feasible(self, seed):
        inst = generate_covering(seed, 9 + seed % 5, 4 + seed % 3)
        assert check_feasibility(inst, np.ones(inst.n))

    def test_covering_matches_exhaustive_enumeration(self):
        inst = generate_covering(3, 8, 4)
        expected = enumerate_binary_optimum(inst)
        got = brute_force_solve(inst)
        assert got.objective == pytest.approx(expected[0], abs=1e-12)

    def test_covering_rows_are_canonical_le(self):
        inst = generate_covering(5, 10, 5)
        for con in inst.constraints:
            assert con.rhs < 0  # >=-cover rewritten
            assert all(a == -1.0 for _, a in con.terms)

    def test_generator_preconditions(self):
        with pytest.raises(ValueError):
            generate_knapsack(1, 0, 1)
        with pytest.raises(ValueError):
            generate_covering(1, 3, 4)

    def test_integer_coefficients(self):
        for inst in (generate_knapsack(11, 8, 3), generate_covering(11, 12, 6)):
            for v in inst.vars:
                assert v.obj == int(v.obj) and abs(v.obj) <= 100
            for con in inst.constraints:
                assert con.rhs == int(con.rhs)
                assert all(a == int(a) for _, a in con.terms)


class TestBruteForce:
    def test_worked_knapsack(self):
        # min -5a -4b -3c  s.t. 2a + 3b + c <= 5
        inst = MilpInstance(
            "worked",
            (binary_var("a", -5.0), binary_var("b", -4.0), binary_var("c", -3.0)),
            (ConstraintDef("cap", ((0, 2.0), (1, 3.0), (2, 1.0)), 5.0),),
        )
        expected = enumerate_binary_optimum(inst)
        got = brute_force_solve(inst)
        assert got.objective == expected[0] == -9.0
        assert np.array_equal(got.values, [1.0, 1.0, 0.0])

    def test_unconstrained_nonnegative_objective(self):
        inst = MilpInstance("z", (binary_var("a", 2.0), binary_var("b", 0.0)), ())
        got = brute_force_solve(inst)
        assert got.objective == 0.0
        assert np.array_equal(got.values, [0.0, 0.0])  # lexicographic tie-break

    def test_infeasible(self):
        inst = MilpInstance(
            "inf", (binary_var("a", 1.0),), (ConstraintDef("r", ((0, 1.0),), -1.0),)
        )
        with pytest.raises(Infeasible):
            brute_force_solve(inst)

    def test_too_large(self):
        inst = MilpInstance("big", tuple(binary_var(f"x{j}", 1.0) for j in range(25)), ())
        with pytest.raises(OracleTooLarge):
            brute_force_solve(inst)

    def test_rejects_non_binary(self):
        inst = MilpInstance("c", (VarDef("x", "continuous", 0.0, 1.0, 1.0),), ())
        with pytest.raises(ValueError):
            brute_force_solve(inst)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_itertools_enumeration(self, seed):
        inst = generate_covering(seed + 50, 7 + seed % 4, 3 + seed % 2)
        expected = enumerate_binary_optimum(inst)
        got = brute_force_solve(inst)
        assert got.objective == pytest.approx(expected[0], abs=1e-12)
        assert np.array_equal(got.values, expected[1])  # incl. lexicographic ties
