package repro.nn

import org.scalatest.funsuite.AnyFunSuite

/** [[Scratch]]: arrays handed out after a mark come back zeroed on
  * `release` and are handed out again; arrays from before the mark stay.
  */
class ScratchSpec extends AnyFunSuite {

  test("released arrays are handed out again, zeroed; arrays before the mark are kept") {
    val tp = new Scratch
    val kept = tp.alloc(3)
    kept(0) = 7.0
    val mark = tp.mark
    val a = tp.alloc(4); val b = tp.alloc(2)
    a.indices.foreach(a(_) = 1.5); b(1) = -2.0
    tp.release(mark)
    assert(a.forall(_ == 0.0) && b.forall(_ == 0.0))
    val a2 = tp.alloc(4); val b2 = tp.alloc(2)
    assert((a2 eq a) && (b2 eq b))
    assert(kept(0) == 7.0)
    // A length that no longer fits gets a fresh zeroed array.
    tp.release(mark)
    val c = tp.alloc(5)
    assert(c.length == 5 && c.forall(_ == 0.0) && !(c eq a))
  }

  test("ops on a Scratch equal the same ops on NoTape, step after step") {
    val rnd = new scala.util.Random(5)
    val lin = Linear(6, 4, rnd)
    val x = Tensor(3, 6)((_, _) => rnd.nextGaussian())
    val tp = new Scratch
    val mark = tp.mark
    (1 to 5).foreach { step =>
      val got = Ops.softmaxRows(Ops.scale(lin(x)(tp), step.toDouble)(tp))(tp).data.clone()
      val want = Ops.softmaxRows(Ops.scale(lin(x)(NoTape), step.toDouble)(NoTape))(NoTape).data
      assert(got.map(java.lang.Double.doubleToLongBits).sameElements(want.map(java.lang.Double.doubleToLongBits)))
      tp.release(mark)
    }
  }

  test("a Scratch records no gradients") {
    intercept[IllegalStateException](new Scratch().grad(Tensor.zeros(1, 1)))
  }
}
