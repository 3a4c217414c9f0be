"""Byte-exact documents of the commands the benchmark never prints.

Each row is a CLI call and its stdout, byte for byte.  The benchmark
checks the outputs of classify, scan, flow and exact; these rows pin
the other documents that `cli.py` lays out, and each verdict string
that the benchmark's references never print.
"""

import pytest

from dilatorus.cli import main

SQUARE = ["--mu1=0.6931471805599453", "--mu2=0.6931471805599453"]
FLOW = ["flow", "--format=csv", "--eps=0.8", "--budget=200", "--t-max=2",
        "--steps=2"]

GOLDEN = {
    "room-float": (["room"] + SQUARE,
     '{"e1":[1.0,0.0],"e2":[0.0,1.0],"mu":[0.6931471805599453,'
     '0.6931471805599453],"nu":[2.0,2.0],"vertices":[[0.0,0.0],[1.0,'
     "0.0],[1.0,1.0],[0.5,1.0],[0.0,0.5]]}\n"),
    "room-exact": (["room", "--mu1-exact=1,1/2,2", "--mu2-exact=1/3,0,0",
                    "--e1=1,0.25", "--e2=-0.5,2"],
     '{"e1":[0.6859943405700353,0.17149858514250882],'
     '"e2":[-0.34299717028501764,1.3719886811400706],'
     '"mu":[1.7071067811865475,0.3333333333333333],"mu_exact":[["1",'
     '"1/2",2],["1/3","0",0]],"nu":[5.512988100637874,'
     '1.3956124250860895],"vertices":[[0.0,0.0],[0.6859943405700353,'
     "0.17149858514250882],[0.34299717028501764,1.5434872662825794],"
     "[0.21856477027844715,1.5123791662809367],"
     "[-0.24576821194742485,0.9830728477896994]]}\n"),
    "act-rotate": (["act", "--rotate=0.4"] + SQUARE,
     '{"e1":[0.9210609940028851,0.3894183423086505],'
     '"e2":[-0.3894183423086505,0.9210609940028851],'
     '"mu":[0.6931471805599453,0.6931471805599453],"nu":[2.0,2.0],'
     '"vertices":[[0.0,0.0],[0.9210609940028851,0.3894183423086505],'
     "[0.5316426516942345,1.3104793363115357],[0.07111215469279197,"
     "1.1157701651572105],[-0.19470917115432526,"
     "0.46053049700144255]]}\n"),
    "twist-exact": (["twist", "--word=ABA", "--mu1-exact=1,0,0",
                     "--mu2-exact=0,1,2"],
     '{"mu_path":[[1.0,1.4142135623730951],[1.0,2.414213562373095],'
     "[3.414213562373095,2.414213562373095],[3.414213562373095,"
     '5.82842712474619]],"room":{"e1":[351.00473188080895,'
     '1036.7466267321024],"e2":[339.823758120261,'
     '1006.3535889343276],"mu":[3.414213562373095,5.82842712474619],'
     '"mu_exact":[["2","1",2],["3","2",2]],"nu":[30.393037797774795,'
     '339.82375812026095],"vertices":[[0.0,0.0],[351.00473188080895,'
     "1036.7466267321024],[690.8284900010699,2043.10021566643],"
     "[679.2796367993506,2008.988896040196],[1.0000000000000002,"
     '2.9613985628932604]]},"word":"ABA"}\n'),
    "twist-float": (["twist", "--word=AB", "--mu1=1", "--mu2=2"],
     '{"mu_path":[[1.0,2.0],[1.0,3.0],[4.0,3.0]],'
     '"room":{"e1":[20.085536923187668,54.598150033144236],'
     '"e2":[20.085536923187668,57.316431861603284],"mu":[4.0,3.0],'
     '"nu":[54.598150033144236,20.085536923187668],"vertices":[[0.0,'
     "0.0],[20.085536923187668,54.598150033144236],"
     "[40.171073846375336,111.91458189474753],[39.8031944052039,"
     '110.91458189474753],[1.0,2.853617111695658]]},"word":"AB"}\n'),
    "scan-csv": (["scan", "--format=csv", "--eps=0.8", "--budget=200"]
                 + SQUARE,
     "theta1,theta2,angle,word,multiplier\n"
     "4.068887871569126,4.124386376858922,0.05549850528979583,R,2.0\n"
     "4.248741371966474,6.7468329155978015,2.498091543631327,,4.0\n"
     "6.871187910705354,6.92668641599515,0.05549850528979583,R,2.0\n"),
    "flow-csv": (FLOW + SQUARE,
     "t,theta_sup,max_multiplier,flags,budget_exhausted\n"
     "0.0,2.498091543631327,4.0,,0\n"
     "1.0,2.6891747133149835,4.0,,0\n"
     "2.0,2.9448205635948126,4.0,,0\n"),
    # a tolerance covering every angle fires criterion 1 from t = 1 on
    "flow-csv-flags": (FLOW + ["--tol=4"] + SQUARE,
     "t,theta_sup,max_multiplier,flags,budget_exhausted\n"
     "0.0,2.498091543631327,4.0,,0\n"
     "1.0,2.6891747133149835,4.0,Criterion1Fired,0\n"
     "2.0,2.9448205635948126,4.0,Criterion1Fired,0\n"),
    "rotnum-csv": (["rotnum", "--format=csv", "--rhoA=1.7", "--rhoB=0.4"],
     "rho_a,rho_b,rotation_number\n"
     "1.7,0.4,0.3667297624816601\n"),
    "measure-float-csv": (["measure", "--format=csv", "--rhoA=0.5",
                           "--rhoB=0.7", "--n=4"],
     "n,measure\n"
     "0,1.0\n"
     "1,0.7450980392156863\n"
     "2,0.4999657894058554\n"
     "3,0.2971653759682596\n"
     "4,0.16172485431240072\n"),
    "classify-door": (["classify", "--theta=0.7853981633974483"] + SQUARE,
     '{"kind":"door","multiplier":null,"theta":0.7853981633974483,'
     '"word":""}\n'),
    # budget 0 classifies the first step only, which does not halt here
    "classify-cantor-like": (["classify", "--theta=1.0", "--budget=0"]
                             + SQUARE,
     '{"kind":"cantor_like","multiplier":null,"theta":1.0,"word":""}\n'),
    "orbit-closure-discrete": (["orbit-closure", "--mu1-exact=1,0,0",
                                "--mu2-exact=3/2,0,0"],
     '{"orbit_closure":"closed","verdict":"discrete","witness":[2,3]}\n'),
    "orbit-closure-undecided": (["orbit-closure", "--mu1=1",
                                 "--mu2=1.4142135623730951"],
     '{"orbit_closure":"unknown","verdict":"undecided_float",'
     '"witness":null}\n'),
}


@pytest.mark.parametrize("argv, expected", list(GOLDEN.values()),
                         ids=list(GOLDEN))
def test_document_bytes(capsys, argv, expected):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == expected
