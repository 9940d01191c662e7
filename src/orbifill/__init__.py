"""orbifill: exact invariants of isolated quotient singularities C^n/G.

Cyclotomic arithmetic, finite unitary group enumeration, twisted sectors and
the Chen-Ruan ring, Reeb orbit families with Conley-Zehnder indices, the
pullback-pushforward span calculus, Floer generator ledgers, and divisibility
constraints on exact orbifold fillings.
"""

__version__ = "0.1.0"
