"""blockscope: block-theoretic and fusion-theoretic invariants of finite
permutation groups at a prime, with a verification catalog.

The layers, bottom up:

* :mod:`blockscope.perms`, :mod:`blockscope.groups`: exact permutation-group
  engine (orders, classes, centralizers, normalizers, Sylow subgroups,
  residuals, subgroup enumeration).
* :mod:`blockscope.recipes`: group construction from JSON recipes.
* :mod:`blockscope.cyclotomic`, :mod:`blockscope.modp`: exact cyclotomic
  arithmetic and reduction modulo a maximal ideal above p.
* :mod:`blockscope.chartable`: exact ordinary character tables.
* :mod:`blockscope.blocks`: p-blocks, defect groups, k and l, Brauer
  induction, lower defect multiplicities.
* :mod:`blockscope.fusion`: fusion systems on a Sylow subgroup, hyperfocal
  subgroups, essential classes, automizers.
* :mod:`blockscope.classify`, :mod:`blockscope.catalog`, :mod:`blockscope.cli`:
  the verification pipeline and command-line surface.
"""

from .blocks import (Block, LowerDefectTable, block_distribution, brauer_induce,
                     central_characters, lower_defect_multiplicities,
                     principal_block)
from .catalog import analyze_group, builtin_catalog_path, load_catalog, run_catalog
from .chartable import CharacterTable, character_table
from .classify import (ClassificationReport, check_local_structure, classify_case,
                       count_weights, verify_counts)
from .cyclotomic import Cyclo, zeta
from .errors import (BlockscopeError, CapExceeded, DegreeOverflow,
                     InputError, InternalInconsistency, InvalidAction,
                     MethodDisagreement, NoComplementFound, NoDefectClass,
                     NotAbelian, NotNormalized, NotPIntegral, ParseError)
from .fusion import EssentialClass, FusionSystem, HyperfocalReport, omega1
from .groups import (ConjClass, PermGroup, SubgroupClasses, abelian_invariants,
                     centralizer, normalizer, o_p_residual,
                     sylow_subgroup, sylow_subgroup_classes)
from .modp import ModPContext, mod_p_context
from .perms import Perm, parse_perm
from .recipes import (alternating, construct_group, cyclic, direct, recipe_from_json,
                      semidirect, symmetric, wreath)

__version__ = "0.1.0"
