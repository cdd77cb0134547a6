"""Bitsliced DES S-box circuits, generated by ``tools/synth_sboxes.py``.

Do not edit by hand: rerun ``python tools/synth_sboxes.py`` to
regenerate, and ``--check`` to compare.  ``s1`` .. ``s8`` evaluate the
FIPS 46 S-boxes over sliced lanes.  Inputs ``a0`` .. ``a5`` are the six
input bits (``a0`` the most significant of the 6-bit index, in the E
expansion's order) and ``m`` the all-lanes mask, so ``x ^ m`` is NOT x;
each returns the four output bits, most significant first.

Each circuit was found by Shannon decomposition on 64-bit truth tables,
every table already built in the box reused with its complement (see
the generator's docstring).  Gates per box: 90/78/80/61/94/82/77/77; 639 in all.
"""

from __future__ import annotations

from typing import Callable, Tuple

__all__ = ["SBOXES", "SboxCircuit"]

SboxCircuit = Callable[[int, int, int, int, int, int, int],
                       Tuple[int, int, int, int]]


def s1(a0: int, a1: int, a2: int, a3: int, a4: int, a5: int,
       m: int) -> Tuple[int, int, int, int]:
    """S1: 90 gates."""
    # output bit 0
    t0 = a4 ^ m
    t1 = t0 ^ a1
    t2 = a1 ^ m
    t3 = a2 & t2
    t4 = t1 ^ t3
    t5 = a2 & t1
    t6 = a3 & t5
    t7 = t4 ^ t6
    t8 = t0 | t2
    t9 = a1 ^ t8
    t10 = a3 & t9
    t11 = a1 ^ t10
    t12 = a2 & t0
    t13 = t11 ^ t12
    t14 = t7 ^ t13
    t15 = a0 & t14
    t16 = t7 ^ t15
    t17 = a3 ^ m
    t18 = t0 | t17
    t19 = a3 & t1
    t20 = t8 ^ t19
    t21 = t18 ^ t20
    t22 = a0 & t21
    t23 = t18 ^ t22
    t24 = a3 ^ t22
    t25 = a2 & t24
    t26 = t23 ^ t25
    t27 = a5 & t26
    t28 = t16 ^ t27
    # output bit 1
    t29 = t0 | a1
    t30 = t29 ^ t12
    t31 = a4 | a1
    t32 = t17 & t31
    t33 = t30 ^ t32
    t34 = a4 ^ t3
    t35 = a3 & t30
    t36 = t34 ^ t35
    t37 = t33 ^ t36
    t38 = a5 & t37
    t39 = t33 ^ t38
    t40 = a2 & t9
    t41 = t31 ^ t40
    t42 = a3 & t34
    t43 = t41 ^ t42
    t44 = t30 | a3
    t45 = t43 ^ t44
    t46 = a5 & t45
    t47 = t43 ^ t46
    t48 = a0 & t47
    t49 = t39 ^ t48
    # output bit 2
    t50 = a2 & t31
    t51 = t29 ^ t50
    t52 = a3 & t4
    t53 = t51 ^ t52
    t54 = a2 ^ m
    t55 = t54 & a4
    t56 = t31 ^ t55
    t57 = a3 & t29
    t58 = t56 ^ t57
    t59 = t53 ^ t58
    t60 = a0 & t59
    t61 = t53 ^ t60
    t62 = a2 & t29
    t63 = t31 ^ t62
    t64 = a3 & t8
    t65 = t63 ^ t64
    t66 = a3 & t12
    t67 = t8 ^ t66
    t68 = a0 & t67
    t69 = t65 ^ t68
    t70 = t61 ^ t69
    t71 = a5 & t70
    t72 = t61 ^ t71
    # output bit 3
    t73 = t56 ^ t64
    t74 = t51 ^ m
    t75 = t74 ^ t10
    t76 = t73 ^ t75
    t77 = a5 & t76
    t78 = t73 ^ t77
    t79 = t29 ^ m
    t80 = t79 ^ t5
    t81 = t80 | a3
    t82 = t31 | t54
    t83 = a3 & t79
    t84 = t82 ^ t83
    t85 = t81 ^ t84
    t86 = a5 & t85
    t87 = t81 ^ t86
    t88 = a0 & t87
    t89 = t78 ^ t88
    return (t28, t49, t72, t89)


def s2(a0: int, a1: int, a2: int, a3: int, a4: int, a5: int,
       m: int) -> Tuple[int, int, int, int]:
    """S2: 78 gates."""
    # output bit 0
    t0 = a4 ^ m
    t1 = t0 ^ a2
    t2 = t1 ^ a5
    t3 = t0 | a2
    t4 = a5 ^ m
    t5 = t3 | t4
    t6 = a0 & t5
    t7 = t2 ^ t6
    t8 = a2 | a5
    t9 = a5 & a4
    t10 = t8 ^ t9
    t11 = a0 & t10
    t12 = t8 ^ t11
    t13 = a1 & t12
    t14 = t7 ^ t13
    t15 = a4 ^ t9
    t16 = a0 & t15
    t17 = a4 ^ t16
    t18 = t17 | a1
    t19 = a3 & t18
    t20 = t14 ^ t19
    # output bit 1
    t21 = a2 | t4
    t22 = t21 ^ a4
    t23 = a3 & t5
    t24 = t22 ^ t23
    t25 = t24 ^ a0
    t26 = a2 ^ m
    t27 = a3 & t4
    t28 = t26 ^ t27
    t29 = a2 & t4
    t30 = t29 ^ t27
    t31 = a0 & t30
    t32 = a4 & t31
    t33 = t28 ^ t32
    t34 = a1 & t33
    t35 = t25 ^ t34
    # output bit 2
    t36 = a4 | t26
    t37 = a5 & a2
    t38 = t36 ^ t37
    t39 = a3 & t38
    t40 = t3 ^ t39
    t41 = a3 & t0
    t42 = t15 ^ t41
    t43 = t42 ^ a2
    t44 = t40 ^ t43
    t45 = a0 & t44
    t46 = t40 ^ t45
    t47 = t1 | t4
    t48 = t47 ^ t21
    t49 = a3 & t48
    t50 = t47 ^ t49
    t51 = a4 | a2
    t52 = t51 | a5
    t53 = a3 & t26
    t54 = t52 ^ t53
    t55 = t50 ^ t54
    t56 = a0 & t55
    t57 = t50 ^ t56
    t58 = a1 & t57
    t59 = t46 ^ t58
    # output bit 3
    t60 = t9 ^ m
    t61 = a3 & t60
    t62 = t38 ^ t61
    t63 = a5 & t3
    t64 = t63 ^ a3
    t65 = t62 ^ t64
    t66 = a0 & t65
    t67 = t62 ^ t66
    t68 = a5 & t36
    t69 = t26 ^ t68
    t70 = t69 ^ t41
    t71 = t51 ^ a5
    t72 = t71 ^ t49
    t73 = a0 & t72
    t74 = t70 ^ t73
    t75 = t67 ^ t74
    t76 = a1 & t75
    t77 = t67 ^ t76
    return (t20, t35, t59, t77)


def s3(a0: int, a1: int, a2: int, a3: int, a4: int, a5: int,
       m: int) -> Tuple[int, int, int, int]:
    """S3: 80 gates."""
    # output bit 0
    t0 = a5 ^ m
    t1 = t0 ^ a4
    t2 = t1 ^ a2
    t3 = t2 ^ a3
    t4 = a4 ^ m
    t5 = a5 | t4
    t6 = a2 & t5
    t7 = a1 ^ m
    t8 = t7 & t6
    t9 = t3 ^ t8
    t10 = a5 ^ a1
    t11 = t0 | t4
    t12 = t11 ^ a1
    t13 = a2 & t12
    t14 = t10 ^ t13
    t15 = t5 | a1
    t16 = t14 ^ t15
    t17 = a3 & t16
    t18 = t14 ^ t17
    t19 = a0 ^ m
    t20 = t19 & t18
    t21 = t9 ^ t20
    # output bit 1
    t22 = t10 ^ m
    t23 = a2 & t4
    t24 = t22 ^ t23
    t25 = t1 ^ m
    t26 = a1 & a5
    t27 = t25 ^ t26
    t28 = t11 ^ m
    t29 = a2 & t28
    t30 = t27 ^ t29
    t31 = a3 & t30
    t32 = t24 ^ t31
    t33 = a5 | a4
    t34 = t33 | t7
    t35 = t12 ^ m
    t36 = a3 & t35
    t37 = t34 ^ t36
    t38 = t37 | a2
    t39 = t19 & t38
    t40 = t32 ^ t39
    # output bit 2
    t41 = a1 & t33
    t42 = t11 ^ t41
    t43 = a1 & t25
    t44 = a4 ^ t43
    t45 = a3 & t44
    t46 = t42 ^ t45
    t47 = t41 ^ m
    t48 = a3 & t47
    t49 = t25 ^ t48
    t50 = t46 ^ t49
    t51 = a0 & t50
    t52 = t46 ^ t51
    t53 = a1 & t0
    t54 = t33 ^ t53
    t55 = t54 | a3
    t56 = a5 | a1
    t57 = a3 & t4
    t58 = t56 ^ t57
    t59 = t55 ^ t58
    t60 = a0 & t59
    t61 = t55 ^ t60
    t62 = a2 ^ m
    t63 = t62 & t61
    t64 = t52 ^ t63
    # output bit 3
    t65 = t10 ^ t57
    t66 = t4 ^ t41
    t67 = a3 & t0
    t68 = t66 ^ t67
    t69 = t65 ^ t68
    t70 = a0 & t69
    t71 = t65 ^ t70
    t72 = t25 | t7
    t73 = a3 & t26
    t74 = t72 ^ t73
    t75 = a4 ^ t74
    t76 = a0 & t75
    t77 = a4 ^ t76
    t78 = a2 & t77
    t79 = t71 ^ t78
    return (t21, t40, t64, t79)


def s4(a0: int, a1: int, a2: int, a3: int, a4: int, a5: int,
       m: int) -> Tuple[int, int, int, int]:
    """S4: 61 gates."""
    # output bit 0
    t0 = a2 ^ m
    t1 = a4 & t0
    t2 = t1 ^ a0
    t3 = t1 ^ m
    t4 = a0 & t3
    t5 = a2 ^ t4
    t6 = t2 ^ t5
    t7 = a1 & t6
    t8 = t2 ^ t7
    t9 = a4 ^ m
    t10 = a2 & t9
    t11 = a0 ^ m
    t12 = t10 | t11
    t13 = a0 & t1
    t14 = t9 ^ t13
    t15 = t12 ^ t14
    t16 = a1 & t15
    t17 = t12 ^ t16
    t18 = a3 & t17
    t19 = t8 ^ t18
    t20 = t10 ^ m
    t21 = t20 ^ t4
    t22 = a1 & t0
    t23 = t21 ^ t22
    t24 = a4 ^ a2
    t25 = t24 | a0
    t26 = a4 ^ t25
    t27 = a1 & t26
    t28 = a4 ^ t27
    t29 = a3 & t28
    t30 = t23 ^ t29
    t31 = t19 ^ t30
    t32 = a5 & t31
    t33 = t19 ^ t32
    # output bit 1
    t34 = t31 ^ m
    t35 = a5 & t34
    t36 = t30 ^ t35
    # output bit 2
    t37 = a0 & t20
    t38 = a2 ^ t37
    t39 = a1 & t25
    t40 = t38 ^ t39
    t41 = t9 ^ t16
    t42 = a3 & t41
    t43 = t40 ^ t42
    t44 = t15 ^ m
    t45 = t44 ^ t5
    t46 = a1 & t45
    t47 = t44 ^ t46
    t48 = t9 | t0
    t49 = t48 ^ t4
    t50 = a1 & t24
    t51 = t49 ^ t50
    t52 = a3 & t51
    t53 = t47 ^ t52
    t54 = a5 ^ m
    t55 = t54 & t53
    t56 = t43 ^ t55
    # output bit 3
    t57 = t43 ^ m
    t58 = t53 ^ m
    t59 = a5 & t58
    t60 = t57 ^ t59
    return (t33, t36, t56, t60)


def s5(a0: int, a1: int, a2: int, a3: int, a4: int, a5: int,
       m: int) -> Tuple[int, int, int, int]:
    """S5: 94 gates."""
    # output bit 0
    t0 = a0 ^ m
    t1 = a2 | t0
    t2 = a2 ^ m
    t3 = t2 | a0
    t4 = t1 ^ t3
    t5 = a5 & t4
    t6 = t1 ^ t5
    t7 = a5 ^ m
    t8 = t1 | t7
    t9 = a1 & t8
    t10 = t6 ^ t9
    t11 = a5 & t2
    t12 = a0 ^ t11
    t13 = t2 | t0
    t14 = a5 & t1
    t15 = t13 ^ t14
    t16 = a1 & t15
    t17 = t12 ^ t16
    t18 = t10 ^ t17
    t19 = a3 & t18
    t20 = t10 ^ t19
    t21 = t0 ^ t14
    t22 = a1 & t5
    t23 = t21 ^ t22
    t24 = a2 | a0
    t25 = t24 | a5
    t26 = t3 ^ t14
    t27 = t25 ^ t26
    t28 = a1 & t27
    t29 = t25 ^ t28
    t30 = t23 ^ t29
    t31 = a3 & t30
    t32 = t23 ^ t31
    t33 = a4 ^ m
    t34 = t33 & t32
    t35 = t20 ^ t34
    # output bit 1
    t36 = t4 ^ t11
    t37 = t24 ^ t14
    t38 = t36 ^ t37
    t39 = a1 & t38
    t40 = t36 ^ t39
    t41 = t5 ^ m
    t42 = a4 & t41
    t43 = t40 ^ t42
    t44 = t3 ^ m
    t45 = t44 ^ a5
    t46 = t45 ^ a1
    t47 = t33 & t1
    t48 = t46 ^ t47
    t49 = t43 ^ t48
    t50 = a3 & t49
    t51 = t43 ^ t50
    # output bit 2
    t52 = a5 & t3
    t53 = t4 ^ t52
    t54 = a1 & t25
    t55 = t53 ^ t54
    t56 = a5 & t0
    t57 = t3 ^ t56
    t58 = t53 ^ m
    t59 = a1 & t58
    t60 = t57 ^ t59
    t61 = t33 & t60
    t62 = t55 ^ t61
    t63 = t24 ^ m
    t64 = t63 ^ t52
    t65 = t64 | a1
    t66 = a1 & t63
    t67 = t66 | a5
    t68 = t65 ^ t67
    t69 = a4 & t68
    t70 = t65 ^ t69
    t71 = a3 & t70
    t72 = t62 ^ t71
    # output bit 3
    t73 = t15 ^ m
    t74 = a1 & t2
    t75 = t73 ^ t74
    t76 = a2 | a5
    t77 = t37 ^ m
    t78 = a1 & t77
    t79 = t76 ^ t78
    t80 = t33 & t79
    t81 = t75 ^ t80
    t82 = a5 & a0
    t83 = t24 ^ t82
    t84 = t83 ^ t9
    t85 = t2 ^ t14
    t86 = a1 & t44
    t87 = t85 ^ t86
    t88 = t84 ^ t87
    t89 = a4 & t88
    t90 = t84 ^ t89
    t91 = t81 ^ t90
    t92 = a3 & t91
    t93 = t81 ^ t92
    return (t35, t51, t72, t93)


def s6(a0: int, a1: int, a2: int, a3: int, a4: int, a5: int,
       m: int) -> Tuple[int, int, int, int]:
    """S6: 82 gates."""
    # output bit 0
    t0 = a1 ^ m
    t1 = t0 ^ a5
    t2 = a5 & t0
    t3 = a4 ^ t2
    t4 = t1 ^ t3
    t5 = a2 & t4
    t6 = t1 ^ t5
    t7 = a5 & a1
    t8 = t7 | a4
    t9 = t2 ^ m
    t10 = a4 & a5
    t11 = t9 ^ t10
    t12 = t8 ^ t11
    t13 = a2 & t12
    t14 = t8 ^ t13
    t15 = a0 & t14
    t16 = t6 ^ t15
    t17 = a4 | a2
    t18 = a4 | a1
    t19 = a0 ^ m
    t20 = t18 | t19
    t21 = a1 & t19
    t22 = a2 & t21
    t23 = t20 ^ t22
    t24 = t17 ^ t23
    t25 = a5 & t24
    t26 = t17 ^ t25
    t27 = a3 ^ m
    t28 = t27 & t26
    t29 = t16 ^ t28
    # output bit 1
    t30 = a4 ^ a1
    t31 = t30 ^ a5
    t32 = a4 ^ m
    t33 = t32 | t0
    t34 = t33 ^ a4
    t35 = a5 & t34
    t36 = t33 ^ t35
    t37 = t31 ^ t36
    t38 = a3 & t37
    t39 = t31 ^ t38
    t40 = t34 ^ t10
    t41 = t40 | t27
    t42 = t19 & t41
    t43 = t39 ^ t42
    t44 = t18 ^ t35
    t45 = t44 | t19
    t46 = a4 ^ t7
    t47 = a0 & t46
    t48 = a4 ^ t47
    t49 = t27 & t48
    t50 = t45 ^ t49
    t51 = a2 & t50
    t52 = t43 ^ t51
    # output bit 2
    t53 = a5 & t33
    t54 = a0 & t31
    t55 = t53 ^ t54
    t56 = a0 & t44
    t57 = t36 ^ t56
    t58 = t55 ^ t57
    t59 = a3 & t58
    t60 = t55 ^ t59
    t61 = t18 ^ t36
    t62 = a0 & t61
    t63 = t18 ^ t62
    t64 = a2 & t63
    t65 = t60 ^ t64
    # output bit 3
    t66 = t3 ^ m
    t67 = t66 ^ t5
    t68 = a2 & t32
    t69 = t1 ^ t68
    t70 = t67 ^ t69
    t71 = a3 & t70
    t72 = t67 ^ t71
    t73 = a2 & t46
    t74 = t9 ^ t73
    t75 = a2 & t11
    t76 = t12 ^ t75
    t77 = t74 ^ t76
    t78 = a3 & t77
    t79 = t74 ^ t78
    t80 = t19 & t79
    t81 = t72 ^ t80
    return (t29, t52, t65, t81)


def s7(a0: int, a1: int, a2: int, a3: int, a4: int, a5: int,
       m: int) -> Tuple[int, int, int, int]:
    """S7: 77 gates."""
    # output bit 0
    t0 = a3 & a1
    t1 = a4 ^ t0
    t2 = a4 ^ m
    t3 = t2 | a3
    t4 = t3 ^ a1
    t5 = t1 ^ t4
    t6 = a2 & t5
    t7 = t1 ^ t6
    t8 = t2 ^ a3
    t9 = a1 & t3
    t10 = t8 ^ t9
    t11 = t2 | a1
    t12 = a2 ^ m
    t13 = t12 & t11
    t14 = t10 ^ t13
    t15 = t7 ^ t14
    t16 = a0 & t15
    t17 = t7 ^ t16
    t18 = t5 | t12
    t19 = t3 ^ t6
    t20 = a0 & t19
    t21 = t18 ^ t20
    t22 = a5 & t21
    t23 = t17 ^ t22
    # output bit 1
    t24 = t2 ^ a1
    t25 = t0 ^ m
    t26 = a2 & t25
    t27 = t24 ^ t26
    t28 = t7 ^ t27
    t29 = a5 & t28
    t30 = t7 ^ t29
    t31 = a1 ^ m
    t32 = a4 | t31
    t33 = a3 & t32
    t34 = a1 ^ t33
    t35 = t34 ^ t6
    t36 = t25 | a4
    t37 = a2 & a1
    t38 = t36 ^ t37
    t39 = a5 ^ m
    t40 = t39 & t38
    t41 = t35 ^ t40
    t42 = a0 ^ m
    t43 = t42 & t41
    t44 = t30 ^ t43
    # output bit 2
    t45 = a3 & t11
    t46 = t24 ^ t45
    t47 = t2 ^ t33
    t48 = a5 & t47
    t49 = t46 ^ t48
    t50 = a3 & t24
    t51 = t32 ^ t50
    t52 = t39 & t51
    t53 = t45 ^ t52
    t54 = a0 & t53
    t55 = t49 ^ t54
    t56 = a4 | a1
    t57 = t56 | t42
    t58 = t50 | a0
    t59 = t57 ^ t58
    t60 = a5 & t59
    t61 = t57 ^ t60
    t62 = t12 & t61
    t63 = t55 ^ t62
    # output bit 3
    t64 = t4 ^ m
    t65 = t64 ^ t8
    t66 = a2 & t65
    t67 = t64 ^ t66
    t68 = a5 & t36
    t69 = t67 ^ t68
    t70 = t32 ^ t0
    t71 = t65 ^ m
    t72 = t12 & t71
    t73 = t70 ^ t72
    t74 = t73 | t39
    t75 = a0 & t74
    t76 = t69 ^ t75
    return (t23, t44, t63, t76)


def s8(a0: int, a1: int, a2: int, a3: int, a4: int, a5: int,
       m: int) -> Tuple[int, int, int, int]:
    """S8: 77 gates."""
    # output bit 0
    t0 = a2 ^ m
    t1 = a3 | t0
    t2 = t1 ^ a4
    t3 = a3 & t0
    t4 = a3 ^ m
    t5 = a4 & t4
    t6 = t3 ^ t5
    t7 = a1 & t6
    t8 = t2 ^ t7
    t9 = a2 ^ t4
    t10 = a4 & t9
    t11 = a2 ^ t10
    t12 = t9 ^ m
    t13 = a4 & a2
    t14 = t12 ^ t13
    t15 = t11 ^ t14
    t16 = a1 & t15
    t17 = t11 ^ t16
    t18 = t8 ^ t17
    t19 = a0 & t18
    t20 = t8 ^ t19
    t21 = t12 ^ a1
    t22 = t4 | a1
    t23 = a4 & t22
    t24 = t21 ^ t23
    t25 = a1 & t12
    t26 = a2 ^ t25
    t27 = t26 | a4
    t28 = a0 & t27
    t29 = t24 ^ t28
    t30 = t20 ^ t29
    t31 = a5 & t30
    t32 = t20 ^ t31
    # output bit 1
    t33 = t4 | t0
    t34 = a1 & t33
    t35 = t2 ^ t34
    t36 = t14 ^ a1
    t37 = t35 ^ t36
    t38 = a5 & t37
    t39 = t35 ^ t38
    t40 = a3 | a2
    t41 = t40 ^ t13
    t42 = t41 ^ t10
    t43 = a1 & t42
    t44 = t41 ^ t43
    t45 = t37 ^ m
    t46 = a5 & t45
    t47 = t44 ^ t46
    t48 = a0 ^ m
    t49 = t48 & t47
    t50 = t39 ^ t49
    # output bit 2
    t51 = t11 ^ a1
    t52 = t4 ^ t10
    t53 = a4 & t0
    t54 = a1 & t53
    t55 = t52 ^ t54
    t56 = a0 & t55
    t57 = t51 ^ t56
    t58 = t11 ^ t43
    t59 = t13 ^ m
    t60 = a1 & t5
    t61 = t59 ^ t60
    t62 = a0 & t61
    t63 = t58 ^ t62
    t64 = t57 ^ t63
    t65 = a5 & t64
    t66 = t57 ^ t65
    # output bit 3
    t67 = t29 ^ m
    t68 = a4 & t1
    t69 = t68 ^ t34
    t70 = t1 ^ t5
    t71 = t70 | a1
    t72 = t48 & t71
    t73 = t69 ^ t72
    t74 = t67 ^ t73
    t75 = a5 & t74
    t76 = t67 ^ t75
    return (t32, t50, t66, t76)


SBOXES: Tuple[SboxCircuit, ...] = (s1, s2, s3, s4, s5, s6, s7, s8)
