"""``BicyclicFamily`` is the one family class, one function builds members,
only ``members`` forms chart bases over Z/r or lists a chart whole, and
only ``with_pair`` maps a pair to its chart basis.

A family given by hand, enumerated from a chart or grown by ``with_pair``
is the same class with up to three parts.  A private subclass per way of
building one would bring back a second ``len``, ``members`` and
intersection to keep in step, a ``Subgroup`` built outside
``_members_of`` would be a second member builder, and a ``_bases`` call
outside ``BicyclicFamily.members`` would form the chart's bases over Z/r
somewhere else: the intersection cuts each prime power's chart over Z/q
and never needs them.  A ``_chart`` call outside ``_bases`` would list a
whole chart, where the intersection cuts by each pivot block's head
alone, written down by ``_heads``, and a ``_heads`` call outside the
intersection would be a second user of those heads.  A ``_chart_key`` call outside ``with_pair`` would
map a member given by hand into key space again, where ``with_pair``
matches the ``Subgroup`` a new key spans against the members instead.
"""

import ast

from guards import call_sites, named, parse


def test_no_class_subclasses_bicyclic_family():
    subclasses = [
        node.name
        for node in ast.walk(parse("brauer.py"))
        if isinstance(node, ast.ClassDef)
        and any(named(base, "BicyclicFamily") for base in node.bases)
    ]
    assert not subclasses, subclasses


def _call_sites(name: str) -> list[str]:
    """``scope:line`` of each call of ``name`` in ``brauer.py``."""
    return call_sites(parse("brauer.py"), name)


def test_brauer_builds_a_subgroup_only_in_members_of():
    sites = _call_sites("Subgroup")
    assert len(sites) == 1 and sites[0].startswith("_members_of:"), sites


def test_chart_bases_over_z_r_are_formed_only_for_members():
    sites = _call_sites("_bases")
    assert len(sites) == 1 and sites[0].startswith("BicyclicFamily.members:"), sites


def test_a_chart_is_listed_whole_only_for_members():
    sites = _call_sites("_chart")
    assert len(sites) == 1 and sites[0].startswith("BicyclicFamily._bases:"), sites


def test_block_heads_are_read_only_by_the_intersection():
    scopes = [site.split(":")[0] for site in _call_sites("_heads")]
    assert scopes == ["BicyclicFamily._intersection"], scopes


def test_only_with_pair_names_a_pair_by_its_chart_basis():
    sites = _call_sites("_chart_key")
    assert len(sites) == 1 and sites[0].startswith("BicyclicFamily.with_pair:"), sites


def test_no_family_is_built_through_its_instance_dict():
    # a family's parts are plain attributes set by name, not written into
    # __dict__ or past a frozen dataclass
    sites = []
    for node in ast.walk(parse("brauer.py")):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        dict_update = (
            isinstance(func, ast.Attribute)
            and func.attr == "update"
            and (
                named(func.value, "__dict__")
                or isinstance(func.value, ast.Call) and named(func.value.func, "vars")
            )
        )
        if dict_update or named(func, "__setattr__"):
            sites.append(node.lineno)
    assert not sites, sites
