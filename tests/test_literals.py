"""Element, triple and base-vector literals at the CLI boundary: round trips and fuzzing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from twistfield import cli, gf

TOWERS = {q: gf.FieldTower.build(q) for q in gf.SUPPORTED_Q}
q_values = st.sampled_from(gf.SUPPORTED_Q)
# literal-ish characters plus a few that int() or re's \d would accept
text = st.text(alphabet=st.sampled_from("0123456789uUt+-^,[]_ ;x\t٣１"), max_size=24) | st.text(
    max_size=24)


@pytest.mark.parametrize("q", gf.SUPPORTED_Q)
def test_every_triple_round_trips(q):
    tower = TOWERS[q]
    for x in tower.ext.elements():
        assert gf.parse_triple(tower, gf.format_triple(tower, x)) == x


@given(q_values, st.data())
def test_spaced_triples_parse_to_their_index(q, data):
    tower = TOWERS[q]
    digits = [data.draw(st.integers(0, q - 1)) for _ in range(3)]
    pad = st.sampled_from(["", " ", "  "])
    body = ",".join(data.draw(pad) + gf.format_elem(tower.base, a) + data.draw(pad)
                    for a in digits)
    literal = data.draw(pad) + "[" + body + "]" + data.draw(pad)
    assert gf.parse_triple(tower, literal) == digits[0] + digits[1] * q + digits[2] * q * q


@settings(max_examples=200)
@given(q_values, st.lists(st.tuples(st.booleans(), st.integers(0, 30), st.integers(0, 2),
                                    st.booleans()), min_size=1, max_size=5))
def test_signed_sums_of_terms_parse_to_their_value(q, terms):
    # terms (negative, coefficient, power, coefficient written) in any order and repetition
    fld = TOWERS[q].base
    p = fld.p
    m = len(fld.prime_coeffs(0))
    coeffs = [0] * m
    chunks = []
    for i, (negative, coef, power, written) in enumerate(terms):
        power %= m
        if power == 0:
            chunk = str(coef)
        else:
            coef = coef if written else 1
            chunk = (str(coef) if written else "") + fld.var + f"^{power}" * (power > 1)
        coeffs[power] = (coeffs[power] + (-coef if negative else coef)) % p
        chunks.append(("-" if negative else "+" if i else "") + chunk)
    literal = "".join(chunks)
    assert gf.parse_elem(fld, literal) == sum(c * p**k for k, c in enumerate(coeffs))


@given(q_values, text)
def test_arbitrary_element_text_raises_only_value_error(q, s):
    tower = TOWERS[q]
    for parse in (lambda: gf.parse_elem(tower.base, s), lambda: gf.parse_triple(tower, s)):
        try:
            parse()
        except ValueError:
            pass


@given(q_values, text)
def test_arbitrary_base_vector_text_raises_only_usage_error(q, s):
    try:
        v = cli.parse_pair_vector(TOWERS[q], s)
    except cli.UsageError:
        return
    assert s.count("[") == s.count("]") == 2 and len(v.x) == len(v.y) == 3


@pytest.mark.parametrize("literal", ["+", "++", "1+", "u++1", "1_0", "u^", "^2", "٣", "１",
                                     "2 u^1_0", "u^2"])
def test_malformed_element_literals(literal):
    with pytest.raises(ValueError):
        gf.parse_elem(TOWERS[3].base, literal)  # u^2 has no place in GF(3)


@pytest.mark.parametrize("v", ["[+,1,0],[1_0,0,1]", "[++,1,0],[0,0,1]", "[1,0,0][0,1,0]",
                               "[1,0,0];[0,1,0]", "x[1,0,0],[0,1,0]y", "[1,0,0],[0,1,0],",
                               "[1,0,0],[0,1,0],[0,0,1]", "[1,0,0],[[0,1,0]]"])
def test_malformed_base_vector_is_usage_error(capsys, v):
    code = cli.main(["census", "--q", "3", "--c", "[2,0,0]", "--v", v])
    assert code == cli.EXIT_USAGE == 2
    assert capsys.readouterr().out == ""


def test_spaced_base_vector_is_accepted(capsys):
    code = cli.main(["census", "--q", "3", "--c", "[2,0,0]", "--v", " [1,0,0], [0, 1 ,0] "])
    assert code == 0
