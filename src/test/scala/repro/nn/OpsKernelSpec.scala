package repro.nn

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite

/** Every loop-built `Ops` kernel equals its closure-built definition in
  * [[ReferenceOps]] bit for bit (`±0.0` told apart), and the [[MatMul]]
  * kernels equal the plain matmul loops, on random shapes (empty ones
  * included) and values that mix ordinary numbers with signed zeros,
  * infinities, NaN, subnormals and saturating magnitudes.
  */
class OpsKernelSpec extends AnyFunSuite {
  private implicit val tp: Tape = NoTape

  private val value: Gen[Double] = Gen.frequency(
    12 -> Gen.choose(-3.0, 3.0),
    2 -> Gen.oneOf(0.0, -0.0),
    1 -> Gen.oneOf(Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN,
      Double.MinPositiveValue, -1e300, 1e300, 40.0, -40.0))
  private def tensor(r: Int, c: Int): Gen[Tensor] =
    Gen.listOfN(r * c, value).map(v => new Tensor(r, c, v.toArray))
  private val dim = Gen.choose(0, 6)
  private val one = for (r <- dim; c <- dim; a <- tensor(r, c)) yield a
  private val two = for (r <- dim; c <- dim; a <- tensor(r, c); b <- tensor(r, c)) yield (a, b)
  private val withRow = for (r <- dim; c <- dim; a <- tensor(r, c); b <- tensor(1, c)) yield (a, b)

  private def sameBits(a: Tensor, b: Tensor): Boolean =
    a.rows == b.rows && a.cols == b.cols && a.data.indices.forall { i =>
      java.lang.Double.doubleToLongBits(a.data(i)) == java.lang.Double.doubleToLongBits(b.data(i))
    }

  private def check(name: String)(prop: Prop): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(20L), prop)
    assert(res.passed, s"$name: ${res.status}")
  }

  test("element-wise kernels equal their closure-built definitions bit for bit") {
    check("add")(Prop.forAllNoShrink(two) { case (a, b) => sameBits(Ops.add(a, b), ReferenceOps.add(a, b)) })
    check("mulElem")(Prop.forAllNoShrink(two) { case (a, b) =>
      sameBits(Ops.mulElem(a, b), ReferenceOps.mulElem(a, b))
    })
    check("scale")(Prop.forAllNoShrink(one, value) { (a, c) => sameBits(Ops.scale(a, c), ReferenceOps.scale(a, c)) })
    check("relu")(Prop.forAllNoShrink(one)(a => sameBits(Ops.relu(a), ReferenceOps.relu(a))))
    check("sigmoid")(Prop.forAllNoShrink(one)(a => sameBits(Ops.sigmoid(a), ReferenceOps.sigmoid(a))))
    check("tanh")(Prop.forAllNoShrink(one)(a => sameBits(Ops.tanh(a), ReferenceOps.tanh(a))))
  }

  test("broadcast kernels equal their closure-built definitions bit for bit") {
    check("addRow")(Prop.forAllNoShrink(withRow) { case (a, b) =>
      sameBits(Ops.addRow(a, b), ReferenceOps.addRow(a, b))
    })
    check("tileRows")(Prop.forAllNoShrink(withRow, dim) { case ((_, row), m) =>
      sameBits(Ops.tileRows(row, m), ReferenceOps.tileRows(row, m))
    })
    val norm = for ((x, gain) <- withRow; bias <- tensor(1, gain.cols)) yield (x, gain, bias)
    check("layerNorm")(Prop.forAllNoShrink(norm) { case (x, gain, bias) =>
      sameBits(Ops.layerNorm(x, gain, bias), ReferenceOps.layerNorm(x, gain, bias))
    })
  }

  test("softmax and cross-entropy kernels equal their closure-built definitions bit for bit") {
    check("softmaxRows")(Prop.forAllNoShrink(one)(a => sameBits(Ops.softmaxRows(a), ReferenceOps.softmaxRows(a))))
    val ce = for {
      r <- dim; c <- Gen.choose(1, 6); logits <- tensor(r, c)
      targets <- Gen.listOfN(r, Gen.choose(0, c - 1))
    } yield (logits, targets.toArray)
    check("ceRowsSum")(Prop.forAllNoShrink(ce) { case (logits, targets) =>
      sameBits(Ops.ceRowsSum(logits, targets), ReferenceOps.ceRowsSum(logits, targets))
    })
  }

  test("layout kernels equal their closure-built definitions bit for bit") {
    check("transpose")(Prop.forAllNoShrink(one)(a => sameBits(Ops.transpose(a), ReferenceOps.transpose(a))))
    val pair = for (r <- dim; c1 <- dim; c2 <- dim; a <- tensor(r, c1); b <- tensor(r, c2)) yield (a, b)
    check("concatCols")(Prop.forAllNoShrink(pair) { case (a, b) =>
      sameBits(Ops.concatCols(a, b), ReferenceOps.concatCols(a, b))
    })
    def range(n: Int) = for (from <- Gen.choose(0, n); until <- Gen.choose(from, n)) yield (from, until)
    check("sliceCols")(Prop.forAllNoShrink(one.flatMap(a => range(a.cols).map(a -> _))) {
      case (a, (from, until)) => sameBits(Ops.sliceCols(a, from, until), ReferenceOps.sliceCols(a, from, until))
    })
    check("sliceRows")(Prop.forAllNoShrink(one.flatMap(a => range(a.rows).map(a -> _))) {
      case (a, (from, until)) => sameBits(Ops.sliceRows(a, from, until), ReferenceOps.sliceRows(a, from, until))
    })
    val gather = for {
      r <- Gen.choose(1, 6); c <- dim; emb <- tensor(r, c)
      idx <- Gen.choose(0, 8).flatMap(Gen.listOfN(_, Gen.choose(0, r - 1)))
    } yield (emb, idx.toArray)
    check("rows")(Prop.forAllNoShrink(gather) { case (emb, idx) =>
      sameBits(Ops.rows(emb, idx), ReferenceOps.rows(emb, idx))
    })
  }

  // Sizes around the kernels' blocks (two rows; four and eight columns or
  // inner terms), m = 1 often, and operands of A that are often zero.
  private val mDim = Gen.frequency(3 -> Gen.const(1), 4 -> Gen.choose(0, 9))
  private val kn = Gen.choose(0, 19)
  private val sparse: Gen[Double] = Gen.frequency(3 -> value, 2 -> Gen.oneOf(0.0, -0.0))
  private val product = for {
    m <- mDim; k <- kn; n <- kn
    a <- Gen.listOfN(m * k, sparse); b <- tensor(k, n); dy <- tensor(m, n)
    da <- tensor(m, k); db <- tensor(k, n)
  } yield (new Tensor(m, k, a.toArray), b, dy.data, da.data, db.data)

  test("matmul kernels equal the plain loops bit for bit: forward, dA and dB") {
    check("forward")(Prop.forAllNoShrink(product) { case (a, b, _, _, _) =>
      sameBits(Ops.matmul(a, b), ReferenceOps.matmul(a, b))
    })
    check("dA += dY B^T")(Prop.forAllNoShrink(product) { case (a, b, dy, da, _) =>
      val got = da.clone(); val want = da.clone()
      MatMul.addABt(dy, b.data, got, a.rows, a.cols, b.cols)
      ReferenceOps.matmulGradA(a, b, dy, want)
      sameBits(new Tensor(a.rows, a.cols, got), new Tensor(a.rows, a.cols, want))
    })
    check("dB += A^T dY")(Prop.forAllNoShrink(product) { case (a, b, dy, _, db) =>
      val got = db.clone(); val want = db.clone()
      MatMul.addAtB(a.data, dy, got, a.rows, a.cols, b.cols)
      ReferenceOps.matmulGradB(a, b, dy, want)
      sameBits(new Tensor(b.rows, b.cols, got), new Tensor(b.rows, b.cols, want))
    })
  }

  // Pairs of rows free of zeros share one block (forward and dB); a row
  // that holds a ±0.0 must not join one, since its skipped term can matter:
  // -0.0 times ±Inf or NaN in B is NaN, and a dB entry of -0.0 plus +0.0 is
  // +0.0. Rows come zero-free, with one ±0.0, or sparse, at m = 2 to 9 (odd
  // m leaves a last row unpaired) and n around the 8- and 4-column blocks.
  private val nonZero: Gen[Double] = Gen.frequency(
    12 -> Gen.choose(-3.0, 3.0).map(x => if (x == 0.0) 1.0 else x),
    1 -> Gen.oneOf(Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN,
      Double.MinPositiveValue, -1e300, 1e300, 40.0, -40.0))
  private def zeroFreeRow(k: Int): Gen[List[Double]] = Gen.listOfN(k, nonZero)
  private def oneZeroRow(k: Int): Gen[List[Double]] =
    for (r <- zeroFreeRow(k); at <- Gen.choose(0, k - 1); z <- Gen.oneOf(0.0, -0.0)) yield r.updated(at, z)
  private def mixedRow(k: Int): Gen[List[Double]] =
    Gen.frequency(6 -> zeroFreeRow(k), 3 -> oneZeroRow(k), 1 -> Gen.listOfN(k, sparse))
  private val withNonFinite: Gen[Double] = Gen.frequency(
    8 -> value, 2 -> Gen.oneOf(Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN))
  private def pairedProduct(row: (Int, Int) => Gen[List[Double]]) = for {
    m <- Gen.choose(2, 9); k <- Gen.choose(1, 40); n <- Gen.oneOf(7, 8, 9, 15, 16, 17, 31, 33)
    rows <- Gen.sequence[List[List[Double]], List[Double]]((0 until m).map(i => row(i, k)))
    b <- Gen.listOfN(k * n, withNonFinite); dy <- Gen.listOfN(m * n, withNonFinite)
    db <- Gen.oneOf(Gen.const(List.fill(k * n)(-0.0)), Gen.listOfN(k * n, Gen.frequency(3 -> value, 2 -> Gen.const(-0.0))))
  } yield (new Tensor(m, k, rows.flatten.toArray), new Tensor(k, n, b.toArray), dy.toArray, db.toArray)

  Seq[(String, (Int, Int) => Gen[List[Double]])](
    "rows free of zeros" -> ((_, k) => zeroFreeRow(k)),
    "only the second row of each pair holding a ±0.0" -> ((i, k) => if (i % 2 == 1) oneZeroRow(k) else zeroFreeRow(k)),
    "mixed rows" -> ((_, k) => mixedRow(k)),
  ).foreach { case (name, row) =>
    test(s"row-paired matmul kernels equal the plain loops bit for bit: $name") {
      val product = pairedProduct(row)
      check("forward")(Prop.forAllNoShrink(product) { case (a, b, _, _) =>
        sameBits(Ops.matmul(a, b), ReferenceOps.matmul(a, b))
      })
      check("dB += A^T dY")(Prop.forAllNoShrink(product) { case (a, b, dy, db) =>
        val got = db.clone(); val want = db.clone()
        MatMul.addAtB(a.data, dy, got, a.rows, a.cols, b.cols)
        ReferenceOps.matmulGradB(a, b, dy, want)
        sameBits(new Tensor(b.rows, b.cols, got), new Tensor(b.rows, b.cols, want))
      })
      check("dA += dY B^T")(Prop.forAllNoShrink(product) { case (a, b, dy, _) =>
        val got = new Array[Double](a.size); val want = new Array[Double](a.size)
        MatMul.addABt(dy, b.data, got, a.rows, a.cols, b.cols)
        ReferenceOps.matmulGradA(a, b, dy, want)
        sameBits(new Tensor(a.rows, a.cols, got), new Tensor(a.rows, a.cols, want))
      })
    }
  }

  test("matmul by a column equals the plain loop bit for bit, m = 0 to 9, finite or not") {
    // A finite column takes the four-row column kernel, which adds the
    // a(i, p) == 0 terms the plain loop skips; a column holding ±Inf or NaN
    // must not, since 0 times either is NaN.
    val finite: Gen[Double] = Gen.frequency(
      12 -> Gen.choose(-3.0, 3.0),
      2 -> Gen.oneOf(0.0, -0.0),
      1 -> Gen.oneOf(Double.MinPositiveValue, -1e300, 1e300, 40.0, -40.0))
    val nonFinite = Gen.oneOf(Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN)
    (0 to 9).foreach { m =>
      val finiteColumn = for {
        k <- kn; a <- Gen.listOfN(m * k, sparse); b <- Gen.listOfN(k, finite)
      } yield (new Tensor(m, k, a.toArray), new Tensor(k, 1, b.toArray))
      val nonFiniteColumn = for {
        k <- Gen.choose(1, 19); a <- Gen.listOfN(m * k, sparse); b <- Gen.listOfN(k, finite)
        at <- Gen.choose(0, k - 1); v <- nonFinite
      } yield (new Tensor(m, k, a.toArray), new Tensor(k, 1, b.updated(at, v).toArray))
      check(s"m=$m, finite column")(Prop.forAllNoShrink(finiteColumn) { case (a, b) =>
        sameBits(Ops.matmul(a, b), ReferenceOps.matmul(a, b))
      })
      check(s"m=$m, column with ±Inf or NaN")(Prop.forAllNoShrink(nonFiniteColumn) { case (a, b) =>
        sameBits(Ops.matmul(a, b), ReferenceOps.matmul(a, b))
      })
    }
  }

  test("matmul on a GradTape routes its gradients through the kernels bit for bit") {
    check("matmul backward")(Prop.forAllNoShrink(product) { case (a, b, dy, _, _) =>
      val tape = new GradTape
      val y = Ops.matmul(a, b)(tape)
      tape.backward(Ops.sumAll(Ops.mulElem(y, new Tensor(y.rows, y.cols, dy))(tape))(tape))
      val dyUsed = tape.grad(y)
      val da = new Array[Double](a.size); val db = new Array[Double](b.size)
      ReferenceOps.matmulGradA(a, b, dyUsed, da)
      ReferenceOps.matmulGradB(a, b, dyUsed, db)
      sameBits(new Tensor(a.rows, a.cols, tape.grad(a)), new Tensor(a.rows, a.cols, da)) &&
      sameBits(new Tensor(b.rows, b.cols, tape.grad(b)), new Tensor(b.rows, b.cols, db))
    })
  }

  test("positional encodings equal the per-call formula bit for bit, in any order of growth") {
    val query = for (len <- Gen.choose(0, 70); d <- Gen.choose(1, 12)) yield (len, d)
    check("positional")(Prop.forAllNoShrink(Gen.listOfN(20, query)) { qs =>
      qs.forall { case (len, d) => sameBits(Tensor.positional(len, d), ReferenceOps.positional(len, d)) }
    })
  }

  test("positional tables grown by concurrent callers stay exact") {
    // Widths no other test uses, so every table starts empty and grows here.
    val widths = 101 to 104
    val threads = (0 until 4).map { k =>
      new Thread(() => (1 to 60).foreach { len =>
        val d = widths((len + k) % widths.size)
        assert(sameBits(Tensor.positional(len * (k + 1), d), ReferenceOps.positional(len * (k + 1), d)))
      })
    }
    val failures = new java.util.concurrent.ConcurrentLinkedQueue[Throwable]()
    threads.foreach { t => t.setUncaughtExceptionHandler((_, e) => failures.add(e)); t.start() }
    threads.foreach(_.join())
    assert(failures.isEmpty, failures.toString)
  }
}
